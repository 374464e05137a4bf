/**
 * @file
 * WL-Cache: the paper's contribution. A volatile SRAM write-back
 * cache whose number of dirty lines is bounded by a reconfigurable
 * maxline threshold tracked in a DirtyQueue. When the dirty count
 * exceeds the waterline threshold, one line is *cleaned* — written
 * back asynchronously and left in the cache in the clean state —
 * overlapping the NVM write with subsequent instructions (§3.1).
 * When the dirty count would exceed maxline, the store stalls (§5.1).
 * A JIT checkpoint flushes the bounded set of dirty lines, so only
 * maxline line-writes worth of capacitor energy must be reserved.
 * The cache owns its adaptive runtime (§4): the boot-time maxline
 * decision and the NVFF bytes that carry it across outages.
 */

#ifndef WLCACHE_CORE_WL_CACHE_HH
#define WLCACHE_CORE_WL_CACHE_HH

#include <functional>

#include "cache/base_tag_cache.hh"
#include "core/adaptive_runtime.hh"
#include "core/dirty_queue.hh"

namespace wlcache {
namespace core {

/** WL-Cache configuration knobs (paper §3, §6.1 defaults). */
struct WlParams
{
    unsigned dq_size = 8;          //!< DirtyQueue slots.
    unsigned maxline = 6;          //!< Initial dirty-line bound.
    unsigned waterline_gap = 1;    //!< waterline = maxline - gap.
    cache::ReplPolicy dq_repl = cache::ReplPolicy::FIFO;

    /** Energy of one DirtyQueue access (CACTI-lite, §6.2). */
    double dq_access_energy = 0.8e-12;
    /** DirtyQueue + control logic leakage (paper §6.2: 0.1 mW). */
    double dq_leakage_watts = 0.1e-3;
    /** Extra DQ search energy per store when dq_repl is LRU. */
    double dq_lru_search_energy = 1.5e-12;

    /**
     * Ablation of §5.4: eagerly drop the DirtyQueue entry when its
     * line is evicted (requires a CAM search the paper avoids; extra
     * energy charged per eviction). Default is the paper's lazy
     * stale-entry scheme.
     */
    bool eager_evict_cleanup = false;
    double dq_cam_search_energy = 4.0e-12;

    unsigned waterline() const
    {
        return maxline > waterline_gap ? maxline - waterline_gap : 0;
    }
};

/** WL-Cache statistics beyond the common CacheStats. */
struct WlStats
{
    explicit WlStats(stats::StatGroup &g)
        : cleanings(g.addScalar("cleanings",
                                "asynchronous line cleanings issued")),
          stale_drops(g.addScalar("stale_drops",
                                  "stale DQ entries dropped (§5.4)")),
          store_stalls(g.addScalar("store_stalls",
                                   "stores stalled at maxline")),
          redundant_entries(
              g.addScalar("redundant_entries",
                          "duplicate DQ inserts (§5.3 race)")),
          dyn_maxline_raises(
              g.addScalar("dyn_maxline_raises",
                          "dynamic maxline increments (§4)")),
          dirty_at_ckpt(g.addDistribution(
              "dirty_at_ckpt", "dirty lines seen by JIT checkpoints"))
    {}

    stats::Scalar &cleanings;
    stats::Scalar &stale_drops;
    stats::Scalar &store_stalls;
    stats::Scalar &redundant_entries;
    stats::Scalar &dyn_maxline_raises;
    stats::Distribution &dirty_at_ckpt;
};

/** The Write-Light cache. */
class WLCache : public cache::BaseTagCache
{
  public:
    /**
     * Dynamic adaptation (§4) asks the platform whether it can secure
     * a @p maxline bound's reserve, @p extra_joules above the current
     * one, right now; true raises Vbackup.
     */
    using TryReserveFn =
        std::function<bool(unsigned maxline, double extra_joules)>;

    /** @param adaptive The boot-time runtime's tunables (§4). */
    WLCache(const cache::CacheParams &params, const WlParams &wl,
            mem::NvmMemory &nvm, energy::EnergyMeter *meter,
            const AdaptiveConfig &adaptive = AdaptiveConfig());

  protected:
    /** For derived designs (WL-Log) wanting their own stats name. */
    WLCache(const std::string &name, const cache::CacheParams &params,
            const WlParams &wl, mem::NvmMemory &nvm,
            energy::EnergyMeter *meter, const AdaptiveConfig &adaptive);

  public:

    cache::CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                                    std::uint64_t value,
                                    std::uint64_t *load_out,
                                    Cycle now) override;

    /** Retire the DirtyQueue entries whose write-back ACK arrived. */
    void tick(Cycle now);
    Cycle checkpoint(Cycle now) override;
    void powerLoss() override;
    Cycle drainAndFlush(Cycle now) override;
    double checkpointEnergyBound() const override;
    double leakageWatts() const override;
    const char *designName() const override { return "WL-Cache"; }

    std::uint64_t cleaningsIssued() const override
    {
        return static_cast<std::uint64_t>(wl_stats_.cleanings.value());
    }

    // --- Adaptive runtime (boot-time, §4/§5.5) ---

    unsigned nvffBytes() const override { return AdaptiveRuntime::kNvffBytes; }
    /** maxline and waterline, one byte each. */
    unsigned nvffImage(std::uint8_t *out) const override;
    /** The runtime's maxline decision; with adaptation off, the
     *  configured maxline returns (undoing dynamic raises). */
    bool endPowerInterval(double on_seconds, Cycle now) override;
    unsigned dirtyLineBound() const override { return wl_.maxline; }
    void reportRun(std::uint64_t outages, cache::WlRunStats &wl,
                   mem::NvmJournalStats &nvm_log) const override;

    // --- Threshold management (boot-time, §4/§5.5) ---

    /** Reconfigure maxline (waterline follows at the configured gap). */
    void setMaxline(unsigned maxline);

    unsigned maxline() const { return wl_.maxline; }
    unsigned waterline() const { return wl_.waterline(); }
    const WlParams &wlParams() const { return wl_; }
    const DirtyQueue &dirtyQueue() const { return dq_; }
    unsigned dirtyLineCount() const { return tags_.dirtyCount(); }
    const WlStats &wlStats() const { return wl_stats_; }

    /**
     * Checkpoint-reserve energy for one additional dirty line.
     * Virtual: log-structured persists cost a slot-sized (header +
     * payload) NVM write instead of a bare line write.
     */
    virtual double lineCheckpointEnergy() const;

    /** Enable opportunistic dynamic maxline adaptation (§4). */
    void enableDynamicAdaptation(TryReserveFn fn)
    {
        try_reserve_ = std::move(fn);
    }

    /**
     * Observation hook fired after every completed access and after
     * every JIT checkpoint: property tests attach one to assert the
     * DirtyQueue invariants — dirty lines never exceed maxline;
     * cleaning engages above the waterline — at every step of a run
     * instead of only at hand-picked instants. Purely observational:
     * no timing or energy is charged.
     */
    using ProbeFn = std::function<void(Cycle now)>;
    void setAccessProbe(ProbeFn fn) { probe_ = std::move(fn); }

    /**
     * Serialize tags/stats (base), the current maxline, the
     * DirtyQueue and the adaptive runtime. The reserve/probe
     * callbacks are reattached by the owning system, not serialized.
     */
    void ioState(StateIo &io) override;

  protected:
    void onDirtyEviction(Addr line_addr) override;

  private:
    void chargeDqAccess();

    /**
     * Waterline protocol (§5.2/§5.3): while the dirty count exceeds
     * the waterline, select a victim, mark it clean (step 1), and
     * launch the asynchronous write-back (step 2).
     */
    Cycle cleanAboveWaterline(Cycle now);

    /** Issue one cleaning; @return issue time (entry goes InFlight). */
    bool cleanOne(Cycle now);

    /**
     * Block until a store may create a new dirty line: the dirty
     * count must be below maxline and a DQ slot must be free (§5.1).
     * @return possibly-advanced cycle after stalling.
     */
    Cycle ensureDirtyCapacity(Cycle now);

    WlParams wl_;
    const unsigned initial_maxline_;  //!< The configured maxline.
    DirtyQueue dq_;
    WlStats wl_stats_;
    AdaptiveRuntime runtime_;
    TryReserveFn try_reserve_;
    ProbeFn probe_;
};

} // namespace core
} // namespace wlcache

#endif // WLCACHE_CORE_WL_CACHE_HH
