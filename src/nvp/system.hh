/**
 * @file
 * The NVP whole-system simulator: boots the platform, replays a
 * workload trace through the core and the configured cache design,
 * integrates harvested and consumed energy against the capacitor,
 * fires JIT checkpoints when the stored energy falls to the Vbackup
 * level, recharges through power-off periods, and restores at Von.
 * The loop is design-agnostic: buildCaches() is its one design
 * switch, and each design's own behaviour (regions, NVFF bytes, the
 * boot-time reconfiguration, its run-record groups) sits behind the
 * cache::DataCache hooks. Optionally verifies crash consistency at
 * every recovery point and at program completion.
 */

#ifndef WLCACHE_NVP_SYSTEM_HH
#define WLCACHE_NVP_SYSTEM_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cache/cache_iface.hh"
#include "cache/icache.hh"
#include "cpu/inorder_core.hh"
#include "energy/capacitor.hh"
#include "energy/energy_meter.hh"
#include "energy/harvester.hh"
#include "mem/byte_image.hh"
#include "mem/log/nvm_journal.hh"
#include "mem/nvm_memory.hh"
#include "nvp/nvff.hh"
#include "nvp/snapshot.hh"
#include "nvp/system_config.hh"
#include "telemetry/rollup.hh"
#include "workloads/workloads.hh"

namespace wlcache {

class StateIo;

namespace nvp {

/** Everything a run reports (feeds every figure in the paper). */
struct RunResult
{
    std::string workload;
    DesignKind design = DesignKind::WL;
    bool completed = false;

    // --- Time ---
    std::uint64_t on_cycles = 0;     //!< Cycles while powered.
    double off_seconds = 0.0;        //!< Recharge time.
    double total_seconds = 0.0;      //!< On + off wall-clock.

    // --- Progress ---
    std::uint64_t instructions = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t replayed_events = 0;  //!< Re-executed (ReplayCache).

    // --- Power failures ---
    std::uint64_t outages = 0;
    std::uint64_t reserve_violations = 0;

    // --- Energy (joules, by category) ---
    energy::EnergyMeter meter;

    // --- Memory traffic ---
    std::uint64_t nvm_writes = 0;
    std::uint64_t nvm_bytes_written = 0;
    std::uint64_t nvm_reads = 0;

    // --- NVM device model (mem/device/) ---
    mem::NvmDeviceStats nvm_device;

    // --- NVM journal (mem/log/, WL-Log only; all 0 otherwise) ---
    mem::NvmJournalStats nvm_log;

    // --- Cache behaviour ---
    double dcache_load_hit_rate = 0.0;
    double dcache_store_hit_rate = 0.0;
    std::uint64_t store_stall_cycles = 0;

    // --- WL-Cache adaptive statistics (paper §6.6) ---
    cache::WlRunStats wl;

    // --- Consistency oracle ---
    std::uint64_t consistency_checks = 0;
    std::uint64_t consistency_violations = 0;
    std::uint64_t load_value_mismatches = 0;
    bool final_state_correct = false;

    // --- Verification campaigns (src/verify/) ---
    /** Forced-outage schedule points that actually fired. */
    std::uint64_t forced_outages = 0;
    /** Registers whose post-boot value differed from the snapshot. */
    std::uint64_t register_restore_mismatches = 0;
    /** Any oracle (NVM diff, load value, register, final image) fired. */
    bool divergence = false;
    bool has_first_divergence = false;
    /** Oracle that saw the first divergence: nvm/load/register/final. */
    std::string first_divergence_kind;
    /** Byte address (or register index for kind=register) of it. */
    std::uint64_t first_divergence_addr = 0;
    std::uint64_t first_divergence_cycle = 0;
    /** Outage count when the first divergence was observed. */
    std::uint64_t first_divergence_outage = 0;
    /**
     * FNV-1a-128 digest of the persistent image region (NVM with the
     * design's persistent overlay applied) at end of run. Two runs
     * ending in the same persistent state produce equal digests, so a
     * campaign can diff faulted runs against the golden run cheaply.
     */
    std::string final_state_digest;

    // --- Telemetry (src/telemetry/) ---
    /**
     * Compact-JSON dump of every component StatGroup (scalars plus
     * distribution buckets), as produced by stats::StatGroup::dumpJson.
     * Always a valid JSON object; "{}" until a run fills it.
     */
    std::string stats_json = "{}";
    /**
     * Per-power-interval rollups, one per completed power-on interval
     * (including the final, gracefully-completed one), capped at
     * SystemConfig::max_interval_rollups.
     */
    std::vector<telemetry::IntervalRollup> intervals;
    /** Intervals not stored because the rollup cap was hit. */
    std::uint64_t intervals_dropped = 0;
};

class SystemSim;

/** Optional run-loop controls: resume, pauses, early cut. */
struct RunOptions
{
    static constexpr Cycle kNever = ~Cycle{0};  //!< No run gets here.

    /**
     * Resume from this snapshot instead of booting cold (null runs
     * cold). The snapshot's compat_key must match this system's.
     */
    const SystemSnapshot *resume = nullptr;

    /**
     * Cooperative early-cut request (may be null). Checked at every
     * event boundary; once it reads true the run stops there as an
     * incomplete run. Signal handlers can flip it — this is how an
     * interrupted runner stops its in-flight jobs mid-run
     * (runner::interruptFlag()).
     */
    const std::atomic<bool> *cut_request = nullptr;

    /** At the first event boundary at or past this cycle, call
     *  @c on_pause (never without one). */
    Cycle pause_at = kNever;

    /** Gets the paused system (it may take a snapshot; pausing never
     *  perturbs the run) and returns the next pause cycle. */
    std::function<Cycle(const SystemSim &)> on_pause;
};

/** One simulated system instance bound to a workload and a trace. */
class SystemSim
{
  public:
    /**
     * @param cfg Full system configuration.
     * @param trace Recorded workload execution to replay; read in
     *        place, so it must outlive the system.
     * @param power Ambient power waveform; read in place, so it must
     *        outlive the system too.
     * @param infinite_power No-failure mode (Figure 4).
     */
    SystemSim(const SystemConfig &cfg,
              const workloads::BuiltTrace &trace,
              const energy::PowerTrace &power,
              bool infinite_power = false);

    /** A temporary power trace would dangle. */
    SystemSim(const SystemConfig &, const workloads::BuiltTrace &,
              energy::PowerTrace &&, bool = false) = delete;

    ~SystemSim();

    /**
     * Run the workload to completion (or until max_outages), under
     * the resume/pause/cut controls in @p opts.
     */
    RunResult run(const RunOptions &opts = {});

    /**
     * Capture the complete deterministic run state. Only meaningful
     * at an event-loop boundary (between executed trace events);
     * resuming from the result is observationally identical to cold
     * execution of the same prefix.
     */
    SystemSnapshot takeSnapshot() const;

    /**
     * Restore a state captured by takeSnapshot() on a system built
     * from a resume-compatible configuration and the same trace.
     * Panics on a compat-key or format mismatch.
     */
    void restoreSnapshot(const SystemSnapshot &snap);

    /**
     * Resume-compatibility key of this configuration + trace, built
     * on first use (only snapshot capture, restore and resume read it).
     */
    const std::string &snapshotKey() const;

    /** The current cycle (the event boundary a pause stopped at). */
    Cycle now() const { return now_; }

    /** Access the data cache (tests). */
    cache::DataCache &dcache() { return *dcache_; }

    /** Access the core (tests: register-file comparison). */
    const cpu::InOrderCore &core() const { return *core_; }

    /** The backing NVM (tests). */
    mem::NvmMemory &nvm() { return *nvm_; }

    /** NVFF register/threshold backup bank (tests). */
    const NvffStore &nvff() const { return *nvff_; }

    /** Capacitor energy (J) between the current Vbackup and Vmin: the
     *  JIT-checkpoint reserve (after construction, the sized one). */
    double checkpointReserveJ() const;

    /** Dump every component's statistics in gem5 style. */
    void dumpStats(std::ostream &os) const;

  private:
    friend class wlcache::StateIo;

    /**
     * The whole snapshot state for both directions: the SYSH header
     * (format version, @p cycle and @p event_index, checked against
     * the snapshot's metadata on load), the RES result section, every
     * component, and the SYS2 run-loop state.
     */
    void ioState(StateIo &io, Cycle cycle, std::uint64_t event_index);

    /** The one design switch: builds the D-cache and its I-cache. */
    void buildCaches();
    double reserveNeededJ() const;

    struct Thresholds
    {
        double vbackup, von;
    };
    /** The design's ThresholdRule at dirty-line bound @p bound. */
    Thresholds thresholds(unsigned bound) const;
    /** Make thresholds(@p bound) the active ones, with timeline rows. */
    void applyThresholds(unsigned bound);
    /** Dynamic adaptation (§4): apply @p bound's thresholds if the
     *  capacitor holds that Vbackup level plus 4 x @p extra_j. */
    bool tryRaiseReserve(unsigned bound, double extra_j);
    /** Draw what the meter charged since the last draw from cap_. */
    void drawConsumedEnergy()
    {
        const energy::Attojoules total = meter_.totalAj();
        const energy::Attojoules delta = total - last_meter_aj_;
        last_meter_aj_ = total;
        if (!harvester_.infinite())
            cap_.drawAj(delta);
    }

    /** Leakage and harvest over the cycles [@p from, @p to). */
    void accountPassage(Cycle from, Cycle to)
    {
        if (to <= from)
            return;
        const Cycle span = to - from;
        if (cfg_.step_mode == StepMode::Percycle)
            return accountCycles(span);
        // Skip-ahead: integrate the whole span closed-form.
        meter_.addAj(energy::EnergyCategory::Leakage,
                     energy::scaleAttojoules(leak_aj_per_cycle_, span));
        harvester_.advanceCycles(span, cap_);
    }

    /** accountPassage()'s Percycle reference: cycle by cycle. */
    void accountCycles(Cycle span);
    void powerFail();
    void bootAndRestore();
    void checkConsistency();
    bool finalCheck();
    void recordDivergence(const char *kind, std::uint64_t addr);
    void computeFinalDigest();
    void attachTimeline();
    void beginInterval();
    void endInterval(double checkpoint_j);
    void collectStatsJson();

    const SystemConfig cfg_;
    const workloads::BuiltTrace &trace_;
    /** snapshotKey()'s cache; empty until first use. Unsynchronized:
     *  a SystemSim is driven by one thread. */
    mutable std::string snapshot_key_;

    energy::EnergyMeter meter_;
    std::unique_ptr<mem::NvmMemory> nvm_;
    std::unique_ptr<cache::DataCache> dcache_;
    std::unique_ptr<cache::InstrCache> icache_;
    std::unique_ptr<cpu::InOrderCore> core_;
    std::unique_ptr<NvffStore> nvff_;
    energy::Capacitor cap_;
    energy::Harvester harvester_;
    mem::ByteImage expected_;  //!< Oracle: initial image + every store.

    RunResult res_;
    Cycle now_ = 0;
    Cycle boot_cycle_ = 0;
    /** meter_.totalAj() at the last drawConsumedEnergy(). */
    energy::Attojoules last_meter_aj_ = 0;
    /** Quantized Vbackup level driving the outage comparator. */
    energy::Attojoules backup_level_aj_ = 0;
    double vbackup_now_ = 0.0;          //!< Active Vbackup threshold.
    double von_now_ = 0.0;              //!< Active restore voltage.
    /** Quantized per-cycle leakage (both step modes integrate this). */
    energy::Attojoules leak_aj_per_cycle_ = 0;
    bool environment_dead_ = false;
    bool warned_reserve_ = false;

    // Telemetry: interval-rollup baselines captured at each boot.
    telemetry::TimelineBuffer *tl_ = nullptr;  //!< == cfg_.timeline.
    std::uint64_t interval_index_ = 0;
    Cycle interval_start_cycle_ = 0;
    std::uint64_t interval_instret_base_ = 0;
    std::uint64_t interval_nvm_writes_base_ = 0;
    std::uint64_t interval_cleans_base_ = 0;
    double interval_harvest_base_ = 0.0;

    // Forced-outage schedule and register-differential state.
    std::size_t forced_idx_ = 0;       //!< Next forced point to fire.
    std::array<std::uint32_t, cpu::RegisterFile::kNumRegs>
        last_ckpt_regs_{};             //!< Regs at last power failure.
    bool has_ckpt_regs_ = false;

    std::size_t idx_ = 0;  //!< Next trace event.

    /** dcache_->regionEvents(): 0 unless the design re-executes. */
    unsigned region_events_ = 0;
    /** Where a region design re-executes from: the in-flight region's
     *  first event and the fetch stream as it stood there. */
    struct RecoveryPoint
    {
        std::size_t idx = 0;
        std::optional<cpu::ICacheStream> stream;
    };
    RecoveryPoint recovery_;
};

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SYSTEM_HH
