/**
 * @file
 * L1 instruction cache model. Instructions are read-only, so the
 * design space collapses to: where fetches are served from (SRAM,
 * NV array, or straight from NVM) and whether the contents survive a
 * power failure (non-volatile array or NVSRAM-style warm restore).
 * Fetches arrive as runs of sequential instructions, so the model
 * performs one tag lookup per line touched rather than per
 * instruction.
 */

#ifndef WLCACHE_CACHE_ICACHE_HH
#define WLCACHE_CACHE_ICACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_params.hh"
#include "cache/tag_array.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"
#include "sim/stats.hh"

namespace wlcache {

class StateIo;

namespace telemetry { class TimelineBuffer; }

namespace cache {

/** How the instruction path behaves across power failures. */
enum class ICacheKind
{
    None,        //!< No I-cache: stream lines from NVM (NVP baseline).
    Volatile,    //!< SRAM, cold after every outage.
    NonVolatile, //!< NV array, survives outages, slow/hot.
    WarmRestore, //!< NVSRAM-style: volatile at runtime, warm at boot.
};

/** Instruction fetch engine with an optional tag array behind it. */
class InstrCache
{
  public:
    /**
     * @param params Geometry/latency/energy (ignored for Kind::None).
     * @param kind Power-failure behaviour.
     * @param nvm Backing memory for line fills.
     * @param meter Energy meter (may be null).
     * @param restore_line_energy Per-line warm-restore energy.
     * @param restore_line_latency Per-line warm-restore cycles.
     */
    InstrCache(const CacheParams &params, ICacheKind kind,
               mem::NvmMemory &nvm, energy::EnergyMeter *meter,
               double restore_line_energy = 2.0e-9,
               Cycle restore_line_latency = 2);

    /**
     * Fetch @p count sequential 4-byte instructions starting at
     * @p pc, issued at cycle @p now, @p iters times back to back (a
     * loop body run @p iters times). Once every line of the body is
     * resident the remaining iterations are pure hits and are charged
     * in one step; cycles, energy, statistics and tag state are
     * exactly those of @p iters single-iteration calls.
     * @return cycle when the last instruction has been fetched.
     */
    Cycle fetchRun(Addr pc, unsigned count, Cycle now,
                   unsigned iters = 1)
    {
        wlc_assert(count > 0 && iters > 0);
        // Same-line hit: one iteration that lies wholly in the line
        // the last pass ended in, with that line still resident, is
        // exactly walk()'s one-chunk hit.
        const Addr off = pc & (static_cast<Addr>(params_.line_bytes) - 1);
        if (iters == 1 && pc - off == last_line_ &&
            off + static_cast<Addr>(count) * 4 <= params_.line_bytes &&
            tags_->valid(last_ref_) &&
            tags_->lineAddr(last_ref_) == last_line_) {
            stat_fetches_ += count;
            ++stat_hits_;
            tags_->touch(last_ref_);
            if (meter_)
                meter_->addAj(energy::EnergyCategory::CacheRead,
                              chunk_aj_[count]);
            return now + static_cast<Cycle>(count) * params_.hit_latency;
        }
        return fetchPasses(pc, count, now, iters);
    }

    /** Power failure: volatile contents disappear (kind dependent). */
    void powerLoss();

    /** Boot: warm restore when the kind supports it. */
    Cycle powerRestore(Cycle now);

    /** Leakage while powered on, watts. */
    double leakageWatts() const;

    ICacheKind kind() const { return kind_; }
    stats::StatGroup &statGroup() { return stat_group_; }

    /** Attach a telemetry timeline (null detaches); observational. */
    void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }

    std::uint64_t fetches() const
    {
        return static_cast<std::uint64_t>(stat_fetches_.value());
    }
    std::uint64_t lineMisses() const
    {
        return static_cast<std::uint64_t>(stat_misses_.value());
    }

    /** Serialize tags (when present), warm image, and statistics. */
    void ioState(StateIo &io);

  private:
    /** fetchRun() past the same-line hit: pass after pass of walk(). */
    Cycle fetchPasses(Addr pc, unsigned count, Cycle now, unsigned iters);

    /**
     * One pass over the run: each line chunk probes its set once,
     * misses fill in place, and the pass's counters and energy are
     * committed at the end. Leaves the chunks' line refs in refs_,
     * the last chunk's line in last_line_/last_ref_ and the pass's
     * CacheRead energy in @p read_aj. Advances @p t.
     * @return true when every line of the run is still resident
     * afterwards (no chunk evicted an earlier one); never for
     * ICacheKind::None.
     */
    bool walk(Addr pc, unsigned count, Cycle &t,
              energy::Attojoules &read_aj);

    /** Charge @p rounds all-hit passes over refs_. */
    Cycle repeatHits(unsigned count, std::uint64_t rounds,
                     energy::Attojoules round_aj, Cycle now);

    CacheParams params_;
    ICacheKind kind_;
    mem::NvmMemory &nvm_;
    energy::EnergyMeter *meter_;

    /**
     * Per-chunk CacheRead cost, quantized once at construction:
     * chunk_aj_[n] = toAttojoules(access_energy_read * n), plus
     * toAttojoules(lru_update_energy) under LRU, for an n-instruction
     * chunk (n <= line_bytes/4). Integer sums, so metering from it is
     * bit-identical to charging both parts per chunk.
     */
    std::vector<energy::Attojoules> chunk_aj_;
    energy::Attojoules line_fill_aj_ = 0;
    telemetry::TimelineBuffer *tl_ = nullptr;
    std::unique_ptr<TagArray> tags_;
    double restore_line_energy_;
    Cycle restore_line_latency_;
    std::vector<Addr> warm_image_;  //!< Lines a warm restore refills.
    std::vector<LineRef> refs_;  //!< walk() scratch: the pass's chunks.

    /**
     * The line the last pass ended in and where it sat, a hint for
     * fetchRun()'s same-line hit. Like TagArray's MRU way it is
     * validated against the tags before every use, so a stale hint
     * only costs the full path. Never serialized: a new or restored
     * cache starts at kNoLine, which no line address equals, and
     * without tags (ICacheKind::None) it stays there.
     */
    static constexpr Addr kNoLine = ~Addr{ 0 };
    Addr last_line_ = kNoLine;
    LineRef last_ref_{};

    stats::StatGroup stat_group_;
    stats::Scalar &stat_fetches_;
    stats::Scalar &stat_hits_;
    stats::Scalar &stat_misses_;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_ICACHE_HH
