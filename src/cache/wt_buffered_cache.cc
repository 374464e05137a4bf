#include "cache/wt_buffered_cache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace cache {

WtBufferedCache::WtBufferedCache(const CacheParams &params,
                                 const WtBufferParams &wb,
                                 mem::NvmMemory &nvm,
                                 energy::EnergyMeter *meter)
    : BaseTagCache("wt_buffered", params, nvm, meter), wb_(wb)
{
    wlc_assert(wb_.entries > 0);
}

void
WtBufferedCache::chargeCamSearch()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheRead,
                    wb_.cam_search_energy);
}

void
WtBufferedCache::drainCompleted(Cycle now)
{
    while (!buffer_.empty() && buffer_.front().ready <= now)
        buffer_.pop_front();
}

int
WtBufferedCache::findBuffered(Addr word_addr)
{
    for (std::size_t i = 0; i < buffer_.size(); ++i)
        if (buffer_[i].word_addr == word_addr)
            return static_cast<int>(i);
    return -1;
}

cache::CacheAccessResult
WtBufferedCache::access(MemOp op, Addr addr, unsigned bytes,
                        std::uint64_t value, std::uint64_t *load_out,
                        Cycle now)
{
    drainCompleted(now);
    auto ref = tags_.lookup(addr);
    const Addr word = addr & ~static_cast<Addr>(7);

    if (op == MemOp::Load) {
        ++stats_.loads;
        // §3.3's critical-path cost: every access must search the
        // buffer before memory can be consulted, lengthening misses.
        chargeCamSearch();
        const Cycle t = now + wb_.cam_search_latency;
        if (ref) {
            ++stats_.load_hits;
            tags_.touch(*ref);
            chargeArrayRead();
            chargeReplUpdate();
            if (load_out)
                *load_out = readLineData(*ref, addr, bytes);
            return { t + params_.hit_latency, true };
        }
        const auto [line, ready] =
            fillLine(addr, t + params_.miss_lookup_latency);
        chargeArrayRead();
        chargeReplUpdate();
        if (load_out)
            *load_out = readLineData(line, addr, bytes);
        return { ready + params_.hit_latency, false };
    }

    // Store: update the cached copy on a hit (no-write-allocate, as
    // the underlying design is still write-through)...
    ++stats_.stores;
    chargeCamSearch();
    Cycle t = now + wb_.cam_search_latency;
    bool hit = false;
    if (ref) {
        hit = true;
        ++stats_.store_hits;
        tags_.touch(*ref);
        writeLineData(*ref, addr, bytes, value);
        chargeArrayWrite();
        chargeReplUpdate();
    }

    // ...but the NVM write goes through the buffer asynchronously.
    const int existing = findBuffered(word);
    if (existing >= 0 &&
        buffer_[static_cast<std::size_t>(existing)].ready > t) {
        // Write combining within the buffer.
        nvm_.poke(addr, bytes, &value);
        ++coalesced_;
        return { t + params_.write_hit_latency, hit };
    }

    if (buffer_.size() >= wb_.entries) {
        const Cycle wait_until = buffer_.front().ready;
        if (wait_until > t) {
            stats_.stall_cycles += wait_until - t;
            t = wait_until;
        }
        drainCompleted(t);
    }
    const auto res = nvm_.write(addr, bytes, &value, t);
    buffer_.push_back({ word, res.ready });
    return { t + params_.write_hit_latency, hit };
}

Cycle
WtBufferedCache::checkpoint(Cycle now)
{
    // Failure-atomic drain of the buffer (§3.3: "the large buffer
    // requires a significant amount of energy to be secured"). The
    // writes were already issued; wait for the last to land.
    Cycle t = now;
    if (!buffer_.empty())
        t = std::max(t, buffer_.back().ready);
    stats_.checkpoint_lines += static_cast<double>(buffer_.size());
    buffer_.clear();
    return t;
}

void
WtBufferedCache::powerLoss()
{
    tags_.invalidateAll();
    buffer_.clear();
}

Cycle
WtBufferedCache::drainAndFlush(Cycle now)
{
    return checkpoint(now);
}

double
WtBufferedCache::checkpointEnergyBound() const
{
    // Worst case: a full buffer of outstanding word writes must be
    // guaranteed to complete after the voltage monitor fires.
    return static_cast<double>(wb_.entries) *
        nvm_.params().writeEnergy(8);
}

double
WtBufferedCache::leakageWatts() const
{
    return params_.leakage_watts + wb_.buffer_leakage_watts;
}

void
WtBufferedCache::ioState(StateIo &io)
{
    BaseTagCache::ioState(io);
    io.section("WTBF");
    io.seq(buffer_, [&io](Pending &p) {
        io.u64(p.word_addr);
        io.u64(p.ready);
    });
    io.u64(coalesced_);
}

} // namespace cache
} // namespace wlcache
