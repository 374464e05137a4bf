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
        tags_ = std::make_unique<TagArray>(params_);
        // A resident body has at most one chunk per line of the array.
        resident_refs_.reserve(tags_->numLines());
        const unsigned max_insns = params_.line_bytes / 4;
        read_energy_aj_.reserve(max_insns + 1);
        for (unsigned n = 0; n <= max_insns; ++n)
            read_energy_aj_.push_back(energy::toAttojoules(
                params_.access_energy_read * static_cast<double>(n)));
        lru_update_aj_ =
            energy::toAttojoules(params_.lru_update_energy);
        line_fill_aj_ = energy::toAttojoules(params_.line_fill_energy);
    }
}

Cycle
InstrCache::fetchLineChunk(Addr line_addr, unsigned insns, Cycle now)
{
    stat_fetches_ += insns;

    if (kind_ == ICacheKind::None) {
        // Stream the line from NVM, then issue at one per cycle.
        const auto res =
            nvm_.read(line_addr, params_.line_bytes, now, nullptr);
        return res.ready + insns;
    }

    auto ref = tags_->lookup(line_addr);
    Cycle t = now;
    if (ref) {
        ++stat_hits_;
        tags_->touch(*ref);
    } else {
        ++stat_misses_;
        LineRef victim = tags_->victim(line_addr);
        if (tags_->valid(victim))
            tags_->invalidate(victim);
        const auto res = nvm_.read(line_addr, params_.line_bytes,
                                   now + params_.miss_lookup_latency,
                                   nullptr);
        tags_->install(victim, line_addr, nullptr);
        if (meter_)
            meter_->addAj(energy::EnergyCategory::CacheWrite,
                          line_fill_aj_);
        t = res.ready;
    }
    if (meter_) {
        meter_->addAj(energy::EnergyCategory::CacheRead,
                      read_energy_aj_[insns]);
        if (params_.repl == ReplPolicy::LRU)
            meter_->addAj(energy::EnergyCategory::CacheRead,
                          lru_update_aj_);
    }
    // Issue rate: hit_latency cycles per instruction (pipelined SRAM
    // fetch sustains 1/cycle; NV arrays sustain one every 2 cycles).
    return t + static_cast<Cycle>(insns) * params_.hit_latency;
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

Cycle
InstrCache::fetchOnce(Addr pc, unsigned count, Cycle now)
{
    Cycle t = now;
    Addr addr = pc;
    unsigned left = count;
    const unsigned line_bytes =
        kind_ == ICacheKind::None ? 64u : params_.line_bytes;
    while (left > 0) {
        const unsigned n = chunkInsns(addr, left, line_bytes);
        t = fetchLineChunk(addr & ~static_cast<Addr>(line_bytes - 1), n,
                           t);
        addr += static_cast<Addr>(n) * 4;
        left -= n;
    }
    return t;
}

bool
InstrCache::bodyResident(Addr pc, unsigned count,
                         energy::Attojoules &round_aj)
{
    resident_refs_.clear();
    round_aj = 0;
    Addr addr = pc;
    unsigned left = count;
    while (left > 0) {
        const unsigned n = chunkInsns(addr, left, params_.line_bytes);
        const auto ref = tags_->lookup(addr);
        if (!ref)
            return false;
        resident_refs_.push_back(*ref);
        round_aj += read_energy_aj_[n];
        if (params_.repl == ReplPolicy::LRU)
            round_aj += lru_update_aj_;
        addr += static_cast<Addr>(n) * 4;
        left -= n;
    }
    return true;
}

Cycle
InstrCache::repeatHits(unsigned count, std::uint64_t rounds,
                       energy::Attojoules round_aj, Cycle now)
{
    const std::uint64_t chunks = resident_refs_.size();
    stat_fetches_ += static_cast<std::uint64_t>(count) * rounds;
    stat_hits_ += chunks * rounds;
    tags_->touchRepeated(resident_refs_.data(),
                         static_cast<unsigned>(chunks), rounds);
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheRead,
                      round_aj * rounds);
    return now + static_cast<Cycle>(count) * params_.hit_latency * rounds;
}

Cycle
InstrCache::fetchRun(Addr pc, unsigned count, Cycle now, unsigned iters)
{
    wlc_assert(count > 0 && iters > 0);
    Cycle t = now;
    if (iters > 1 && tags_) {
        // Hits change no residency, so once every line of the body is
        // resident all remaining iterations hit, and the only state
        // they move is the hit counters, the meter and the LRU stamps.
        energy::Attojoules round_aj;
        if (bodyResident(pc, count, round_aj))
            return repeatHits(count, iters, round_aj, t);
        t = fetchOnce(pc, count, t);
        if (bodyResident(pc, count, round_aj))
            return repeatHits(count, iters - 1, round_aj, t);
        // A later chunk of the pass evicted an earlier one.
        --iters;
    }
    // One pass per iteration; without tags (ICacheKind::None) every
    // chunk is a stateful NVM read.
    for (unsigned i = 0; i < iters; ++i)
        t = fetchOnce(pc, count, t);
    return t;
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
        tags_->forEachValidLine([this](LineRef ref, Addr laddr, bool) {
            SavedLine sl;
            sl.addr = laddr;
            sl.data.assign(tags_->data(ref),
                           tags_->data(ref) + tags_->lineBytes());
            warm_image_.push_back(std::move(sl));
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
    for (const auto &sl : warm_image_) {
        LineRef victim = tags_->victim(sl.addr);
        if (tags_->valid(victim))
            tags_->invalidate(victim);
        tags_->install(victim, sl.addr, sl.data.data());
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
    io.seq(warm_image_, [&io](SavedLine &sl) {
        io.u64(sl.addr);
        io.vecU8(sl.data);
    });
    stat_group_.ioState(io);
}

} // namespace cache
} // namespace wlcache
