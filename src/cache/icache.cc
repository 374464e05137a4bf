#include "cache/icache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

InstrCache::InstrCache(const CacheParams &params, ICacheKind kind,
                       mem::NvmMemory &nvm, energy::EnergyMeter *meter,
                       double restore_line_energy,
                       Cycle restore_line_latency)
    : params_(params), kind_(kind), nvm_(nvm), meter_(meter),
      restore_line_energy_(restore_line_energy),
      restore_line_latency_(restore_line_latency),
      stat_group_("icache"),
      stat_fetches_(
          stat_group_.addScalar("fetches", "instructions fetched")),
      stat_hits_(stat_group_.addScalar("line_hits", "line-chunk hits")),
      stat_misses_(stat_group_.addScalar("line_misses", "line fills"))
{
    if (kind_ != ICacheKind::None) {
        // Tag-only: nothing reads instruction bytes (fills install
        // zeros), so the array keeps no line data.
        tags_ = std::make_unique<TagArray>(params_, false);
        // A pass that leaves its body resident has at most one chunk
        // per line of the array.
        refs_.reserve(tags_->numLines());
        const unsigned max_insns = params_.line_bytes / 4;
        const energy::Attojoules lru_aj =
            params_.repl == ReplPolicy::LRU
            ? energy::toAttojoules(params_.lru_update_energy)
            : 0;
        chunk_aj_.reserve(max_insns + 1);
        for (unsigned n = 0; n <= max_insns; ++n)
            chunk_aj_.push_back(
                energy::toAttojoules(params_.access_energy_read *
                                     static_cast<double>(n)) +
                lru_aj);
        line_fill_aj_ = energy::toAttojoules(params_.line_fill_energy);
    }
}

namespace {

/** Instructions of a run at @p addr that fall inside its line. */
unsigned
chunkInsns(Addr addr, unsigned left, unsigned line_bytes)
{
    const unsigned off = static_cast<unsigned>(addr & (line_bytes - 1));
    const unsigned fit = (line_bytes - off) / 4;
    return std::min(left, fit == 0 ? 1u : fit);
}

} // namespace

bool
InstrCache::walk(Addr pc, unsigned count, Cycle &t,
                 energy::Attojoules &read_aj)
{
    stat_fetches_ += count;
    // Locals, not the out-parameters, in the loop: the tag-array
    // stores could otherwise alias them.
    Cycle now = t;
    Addr addr = pc;
    unsigned left = count;
    if (!tags_) {
        // Stream each 64-byte line from NVM, then issue at one per
        // cycle.
        while (left > 0) {
            const unsigned n = chunkInsns(addr, left, 64);
            now = nvm_.read(addr & ~Addr{ 63 }, params_.line_bytes, now,
                            nullptr).ready + n;
            addr += static_cast<Addr>(n) * 4;
            left -= n;
        }
        t = now;
        return false;
    }
    const Addr line_mask = static_cast<Addr>(params_.line_bytes) - 1;
    const Addr first_line = pc & ~line_mask;
    bool resident = true;
    energy::Attojoules rd_aj = 0;
    energy::Attojoules fill_aj = 0;
    std::uint64_t misses = 0;
    refs_.clear();
    while (left > 0) {
        const unsigned n = chunkInsns(addr, left, params_.line_bytes);
        const Addr line = addr & ~line_mask;
        addr += static_cast<Addr>(n) * 4;
        left -= n;
        LineRef ref{};
        if (tags_->probe(line, ref)) {
            tags_->touch(ref);
        } else {
            ++misses;
            if (tags_->valid(ref)) {
                // The run's lines are consecutive, so an evicted line
                // in [first_line, line) is one of this pass's chunks.
                const Addr evicted = tags_->lineAddr(ref);
                if (evicted >= first_line && evicted < line)
                    resident = false;
                tags_->invalidate(ref);
            }
            now = nvm_.read(line, params_.line_bytes,
                            now + params_.miss_lookup_latency, nullptr)
                      .ready;
            tags_->install(ref, line, nullptr);
            fill_aj += line_fill_aj_;
        }
        refs_.push_back(ref);
        rd_aj += chunk_aj_[n];
        // Issue rate: hit_latency cycles per instruction (pipelined
        // SRAM fetch sustains 1/cycle; NV arrays one every 2 cycles).
        now += static_cast<Cycle>(n) * params_.hit_latency;
    }
    last_ref_ = refs_.back();
    last_line_ = tags_->lineAddr(last_ref_);
    stat_hits_ += refs_.size() - misses;
    stat_misses_ += misses;
    if (meter_) {
        meter_->addAj(energy::EnergyCategory::CacheRead, rd_aj);
        if (fill_aj)
            meter_->addAj(energy::EnergyCategory::CacheWrite, fill_aj);
    }
    t = now;
    read_aj = rd_aj;
    return resident;
}

Cycle
InstrCache::repeatHits(unsigned count, std::uint64_t rounds,
                       energy::Attojoules round_aj, Cycle now)
{
    const std::uint64_t chunks = refs_.size();
    stat_fetches_ += static_cast<std::uint64_t>(count) * rounds;
    stat_hits_ += chunks * rounds;
    tags_->touchRepeated(refs_.data(), static_cast<unsigned>(chunks),
                         rounds);
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheRead,
                      round_aj * rounds);
    return now + static_cast<Cycle>(count) * params_.hit_latency * rounds;
}

Cycle
InstrCache::fetchPasses(Addr pc, unsigned count, Cycle now,
                        unsigned iters)
{
    // Hits change no residency, so once a pass leaves every line of
    // the body resident all remaining iterations hit, and the only
    // state they move is the hit counters, the meter and the LRU
    // stamps. A pass in which a later chunk evicted an earlier one
    // (and every pass without tags) is followed by another pass.
    energy::Attojoules read_aj = 0;
    while (!walk(pc, count, now, read_aj) && --iters > 0) {
    }
    return iters > 1 ? repeatHits(count, iters - 1, read_aj, now) : now;
}

void
InstrCache::powerLoss()
{
    switch (kind_) {
      case ICacheKind::None:
      case ICacheKind::NonVolatile:
        break;
      case ICacheKind::Volatile:
        tags_->invalidateAll();
        break;
      case ICacheKind::WarmRestore:
        // Snapshot the (clean) image into the NV counterpart; the
        // ideal NVSRAM design pays nothing for clean lines.
        warm_image_.clear();
        tags_->forEachValidLine([this](LineRef, Addr laddr, bool) {
            warm_image_.push_back(laddr);
        });
        tags_->invalidateAll();
        break;
    }
}

Cycle
InstrCache::powerRestore(Cycle now)
{
    if (kind_ != ICacheKind::WarmRestore || warm_image_.empty())
        return now;
    Cycle t = now;
    for (const Addr laddr : warm_image_) {
        LineRef victim = tags_->victim(laddr);
        if (tags_->valid(victim))
            tags_->invalidate(victim);
        tags_->install(victim, laddr, nullptr);
        t += restore_line_latency_;
        if (meter_)
            meter_->add(energy::EnergyCategory::Restore,
                        restore_line_energy_);
    }
    WLC_TIMELINE(tl_, Restore, now, "icache", warm_image_.size(),
                 t - now);
    warm_image_.clear();
    return t;
}

double
InstrCache::leakageWatts() const
{
    return kind_ == ICacheKind::None ? 0.0 : params_.leakage_watts;
}

void
InstrCache::ioState(StateIo &io)
{
    io.section("IC  ");
    io.check(tags_ != nullptr, "icache snapshot kind");
    if (tags_)
        tags_->ioState(io);
    io.seq(warm_image_, [&io](Addr &laddr) { io.u64(laddr); });
    stat_group_.ioState(io);
    if (io.loading())
        last_line_ = kNoLine;
}

} // namespace cache
} // namespace wlcache
