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

cache::CacheAccessResult
WtBufferedCache::access(MemOp op, Addr addr, unsigned bytes,
                        std::uint64_t value, std::uint64_t *load_out,
                        Cycle now)
{
    buffer_.popCompleted(now);
    // §3.3's critical-path cost: every access must search the buffer
    // before memory can be consulted, lengthening misses.
    chargeCamSearch();
    Cycle t = now + wb_.cam_search_latency;
    if (op == MemOp::Load)
        return load(addr, bytes, load_out, t);

    // Store: update the cached copy on a hit (no-write-allocate, as
    // the underlying design is still write-through)...
    const bool hit = storeNoAllocate(addr, bytes, value);

    // ...but the NVM write goes through the buffer asynchronously.
    // Write combining only into an entry still pending after the
    // search.
    const Addr word = addr & ~static_cast<Addr>(7);
    const PersistQueue::Entry *existing = buffer_.find(word);
    if (existing && existing->ready > t) {
        nvm_.poke(addr, bytes, &value);
        ++coalesced_;
        return { t + params_.write_hit_latency, hit };
    }

    t = buffer_.waitForSlot(wb_.entries, t, stats_.stall_cycles);
    buffer_.push(word, nvm_.write(addr, bytes, &value, t).ready);
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
    buffer_.ioState(io);
    io.u64(coalesced_);
}

} // namespace cache
} // namespace wlcache
