/**
 * @file
 * Common interface all data-cache designs implement, plus the shared
 * statistics block. The NVP system drives a design through exactly
 * this interface: timed accesses during execution, a JIT checkpoint
 * when the voltage monitor fires, power-loss/restore transitions, and
 * a final drain at program completion. The design-specific hooks
 * (regions, NVFF bytes, boot-time reconfiguration, run-record groups)
 * default to doing nothing.
 */

#ifndef WLCACHE_CACHE_CACHE_IFACE_HH
#define WLCACHE_CACHE_CACHE_IFACE_HH

#include <cstdint>
#include <string>

#include "cache/cache_params.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {
class ByteImage;
struct NvmJournalStats;
}
namespace telemetry { class TimelineBuffer; }

namespace cache {

/** Outcome of a timed cache access. */
struct CacheAccessResult
{
    Cycle ready;  //!< Cycle at which the core may proceed.
    bool hit;     //!< Tag hit (for statistics / tests).
};

/** Statistics every design reports. */
struct CacheStats
{
    explicit CacheStats(stats::StatGroup &g)
        : loads(g.addScalar("loads", "load accesses")),
          stores(g.addScalar("stores", "store accesses")),
          load_hits(g.addScalar("load_hits", "load hits")),
          store_hits(g.addScalar("store_hits", "store hits")),
          fills(g.addScalar("fills", "lines filled from NVM")),
          evictions(g.addScalar("evictions", "lines evicted")),
          dirty_evictions(
              g.addScalar("dirty_evictions", "dirty lines evicted")),
          writebacks(
              g.addScalar("writebacks", "line write-backs to NVM")),
          stall_cycles(
              g.addScalar("stall_cycles", "cycles stalled on stores")),
          checkpoint_lines(g.addScalar("checkpoint_lines",
                                       "lines persisted by JIT ckpt"))
    {}

    stats::Scalar &loads;
    stats::Scalar &stores;
    stats::Scalar &load_hits;
    stats::Scalar &store_hits;
    stats::Scalar &fills;
    stats::Scalar &evictions;
    stats::Scalar &dirty_evictions;
    stats::Scalar &writebacks;
    stats::Scalar &stall_cycles;
    stats::Scalar &checkpoint_lines;
};

/** The WL family's run-record group `wl` (paper §6.6). */
struct WlRunStats
{
    unsigned reconfigurations = 0;
    unsigned maxline_min_seen = 0;
    unsigned maxline_max_seen = 0;
    double prediction_accuracy = 1.0;
    double avg_dirty_at_ckpt = 0.0;
    double writebacks_per_on_period = 0.0;
    std::uint64_t dyn_maxline_raises = 0;
};

/**
 * Abstract data cache. Implementations: NoCache (NVP baseline),
 * VCacheWT, NVCacheWB, NvsramCacheWB (ideal), ReplayCacheModel, and
 * the paper's contribution core::WLCache.
 */
class DataCache
{
  public:
    explicit DataCache(const std::string &name)
        : stat_group_(name), stats_(stat_group_)
    {}
    virtual ~DataCache() = default;

    DataCache(const DataCache &) = delete;
    DataCache &operator=(const DataCache &) = delete;

    /**
     * Timed access issued by the core at cycle @p now.
     *
     * @param op Load or Store.
     * @param addr Byte address (must not cross a line boundary).
     * @param bytes Access width (1/2/4/8).
     * @param value Store data (ignored for loads).
     * @param load_out When non-null on a load, receives the data.
     * @param now Issue cycle.
     */
    virtual CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                                     std::uint64_t value,
                                     std::uint64_t *load_out,
                                     Cycle now) = 0;

    /**
     * JIT checkpoint: persist whatever the design needs before the
     * supply collapses. @return completion cycle.
     */
    virtual Cycle checkpoint(Cycle now) = 0;

    /** Volatile state disappears (called after checkpoint()). */
    virtual void powerLoss() = 0;

    /** NVFF bytes the design adds to the register bank (fixed). */
    virtual unsigned nvffBytes() const { return 0; }

    /** Write the bytes a JIT checkpoint captures there; @return count. */
    virtual unsigned nvffImage(std::uint8_t * /*out*/) const { return 0; }

    /**
     * A power-on interval of @p on_seconds ended at @p now (after
     * powerLoss()): reconfigure for the next one. @return true when
     * dirtyLineBound() may have changed.
     */
    virtual bool endPowerInterval(double, Cycle) { return false; }

    /** Run-time bound on dirty lines (WL's maxline); 0 if none. */
    virtual unsigned dirtyLineBound() const { return 0; }

    /**
     * Trace events per re-executable region, 0 for a design that never
     * re-executes; fixed. The system calls regionBoundary() after each
     * region and rolls back to the region's start at an outage.
     */
    virtual unsigned regionEvents() const { return 0; }

    /** Region commit at @p now. @return completion cycle. */
    virtual Cycle regionBoundary(Cycle now) { return now; }

    /**
     * Boot-time restoration (e.g.\ NVSRAM warm restore).
     * @return completion cycle.
     */
    virtual Cycle powerRestore(Cycle now) { return now; }

    /**
     * Graceful program completion: flush all dirty state to NVM.
     * @return completion cycle.
     */
    virtual Cycle drainAndFlush(Cycle now) = 0;

    /**
     * Worst-case energy (joules) a JIT checkpoint of this design can
     * consume. The NVP system reserves this much capacitor energy
     * above Vmin when deriving Vbackup.
     */
    virtual double checkpointEnergyBound() const = 0;

    /**
     * Collect the design's persistent bytes that *override* NVM main
     * memory (dirty NV-array lines, NVSRAM backup images) into the
     * given image. Designs whose persistence lives entirely in NVM
     * after a checkpoint contribute nothing.
     */
    virtual void collectPersistentOverlay(mem::ByteImage &) const {}

    /** Leakage power of the cache arrays while powered on, watts. */
    virtual double leakageWatts() const = 0;

    /** Human-readable design name. */
    virtual const char *designName() const = 0;

    /** Fill the run-record groups the design owns at the end of a run. */
    virtual void reportRun(std::uint64_t /*outages*/, WlRunStats &,
                           mem::NvmJournalStats &) const {}

    stats::StatGroup &statGroup() { return stat_group_; }
    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    /**
     * Attach a telemetry timeline (null detaches). Observational
     * only: recording must never change timing or energy.
     */
    virtual void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }
    telemetry::TimelineBuffer *timeline() const { return tl_; }

    /**
     * Peak concurrently-dirty line count since the last
     * resetDirtyHighWater(); designs without a dirty-line notion
     * report 0.
     */
    virtual unsigned dirtyHighWater() const { return 0; }
    virtual void resetDirtyHighWater() {}

    /** Total asynchronous cleanings issued (WL designs; else 0). */
    virtual std::uint64_t cleaningsIssued() const { return 0; }

    /**
     * Serialize the design's complete mutable state (tags, data,
     * dirty bits, backup images, in-flight queues, statistics) for a
     * deterministic simulation snapshot. The base implementation
     * covers the shared statistics block; overrides must call it
     * first and then append their own state.
     */
    virtual void ioState(StateIo &io);

  protected:
    stats::StatGroup stat_group_;
    CacheStats stats_;
    telemetry::TimelineBuffer *tl_ = nullptr;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_CACHE_IFACE_HH
