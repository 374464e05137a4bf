/**
 * @file
 * Whole-system configuration: which cache design backs the NVP, the
 * platform energy parameters (capacitor, thresholds, NVFF costs),
 * and the per-design presets from the paper's Table 2.
 */

#ifndef WLCACHE_NVP_SYSTEM_CONFIG_HH
#define WLCACHE_NVP_SYSTEM_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cache/cache_params.hh"
#include "cache/icache.hh"
#include "cache/nvsram_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/wt_buffered_cache.hh"
#include "core/adaptive_runtime.hh"
#include "core/wl_cache.hh"
#include "cpu/inorder_core.hh"
#include "mem/log/nvm_journal.hh"
#include "mem/nvm_params.hh"
#include "sim/types.hh"

namespace wlcache {

namespace telemetry { class TimelineBuffer; }

namespace nvp {

/** The cache designs the paper compares (Figure 1, Table 1). */
enum class DesignKind
{
    NoCache,      //!< NVP without a cache (Fig. 1a).
    VCacheWT,     //!< Volatile write-through SRAM (Fig. 1b).
    NVCacheWB,    //!< Non-volatile write-back (Fig. 1c).
    NvsramWB,     //!< NVSRAM ideal write-back (Fig. 1d) — the baseline.
    NvsramFull,   //!< NVSRAM(full): backs up the whole array (§2.3.3).
    NvsramPractical, //!< Way-partitioned SRAM+NV hybrid (§2.3.3).
    Replay,       //!< ReplayCache (volatile WB + region persistence).
    WtBuffered,   //!< WT + CAM write-back buffer (§3.3 alternative).
    WL,           //!< WL-Cache (Fig. 1e) — the contribution.
    WLLog,        //!< WL-Cache over a log-structured NVM write path.
};

/** Human-readable design name matching the paper's figures. */
const char *designKindName(DesignKind kind);

/** The I-cache a design pairs with (Table 1). */
cache::ICacheKind icacheKind(DesignKind kind);

/** How a design derives its Vbackup and Von. */
enum class ThresholdRule
{
    Preset,     //!< platform.vbackup and platform.von as configured.
    WorstCase,  //!< Vbackup fits the worst-case backup (§2.3.3).
    Maxline,    //!< platform.wl_* schedule over maxline (§4, §5.5).
};

ThresholdRule thresholdRule(DesignKind kind);

/**
 * Inverse of designKindName(): parse a figure-style design name.
 * @return true and set @p out on a match; false on an unknown name.
 */
bool designKindFromName(const std::string &name, DesignKind &out);

/**
 * Parse a design's short name or alias as the tools and sweep specs
 * spell it ("wl", "wt" or "vcache-wt", "nvc", ...), case-insensitive.
 * @return true and set @p out on a match; false on an unknown name.
 */
bool designFromShortName(const std::string &name, DesignKind &out);

/** Every design's primary short name, in listing order. */
std::vector<std::string> designShortNames();

/**
 * WL-Cache family: designs built on the DirtyQueue/maxline machinery
 * (adaptive runtime, threshold schedule, maxline NVFF state).
 */
inline bool
isWlFamily(DesignKind kind)
{
    return kind == DesignKind::WL || kind == DesignKind::WLLog;
}

/** Step-mode name: "percycle" or "skip_ahead". */
const char *stepModeName(StepMode mode);

/**
 * Inverse of stepModeName().
 * @return true and set @p out on a match; false on an unknown name.
 */
bool stepModeFromName(const std::string &name, StepMode &out);

/** Platform energy/threshold parameters (Table 2). */
struct PlatformParams
{
    double capacitance_f = 1.0e-6;  //!< Default 1 uF.
    double vmin = 2.8;
    double vmax = 3.5;
    /** Restore (boot) voltage; per-design preset (Table 2). */
    double von = 3.3;
    /**
     * JIT-checkpointing voltage threshold; per-design preset
     * (Table 2: NV 2.9, NVSRAM 3.1, WL 2.95..3.1 by maxline). The
     * energy reserved between Vbackup and Vmin scales with the
     * capacitor, exactly as a voltage-divider threshold does in the
     * MSP430-class hardware the paper assumes (§5.5).
     */
    double vbackup = 2.9;
    double harvest_efficiency = 0.7;

    /**
     * WL-Cache threshold schedule (§4, §5.5): Vbackup and Von as
     * linear functions of the current maxline, anchored at
     * maxline = 2 and matching Table 2's 2.95..3.1 / 3.3..3.5 ranges
     * at the default DirtyQueue bounds [2, 6].
     */
    double wl_vbackup_base = 2.95;
    double wl_vbackup_step = 0.0375;
    double wl_von_base = 3.3;
    double wl_von_step = 0.05;
    unsigned wl_threshold_anchor = 2;  //!< maxline anchor for bases.

    /** NVFF write energy per byte (registers, thresholds, timers). */
    double nvff_energy_per_byte = 18.0e-12;
    /** NVFF read (restore) energy per byte at boot. */
    double nvff_restore_energy_per_byte = 5.0e-12;

    /** Cycles for wake-up/boot before execution resumes. */
    Cycle reboot_latency_cycles = 2000;
};

/** Full system configuration. */
struct SystemConfig
{
    DesignKind design = DesignKind::WL;

    /**
     * How the run loop integrates energy over multi-cycle spans
     * (DESIGN.md §15). SkipAhead (the default) uses closed-form
     * integer integration; Percycle is the cycle-by-cycle reference
     * kept compiled-in forever so the two paths stay differentially
     * testable. Results are bit-identical, but the mode is still part
     * of dumpConfigKey() so cached run records say which path
     * produced them; snapshots neutralize it (cross-mode resume is
     * supported by construction).
     */
    StepMode step_mode = StepMode::SkipAhead;

    cache::CacheParams dcache;
    cache::CacheParams icache;
    cache::NvsramParams nvsram;
    cache::NvsramPracticalParams nvsram_practical;
    cache::ReplayParams replay;
    cache::WtBufferParams wt_buffer;
    core::WlParams wl;
    core::AdaptiveConfig adaptive;
    /** WL-Cache opportunistic dynamic adaptation (§4). */
    bool wl_dynamic = false;

    mem::NvmParams nvm;
    /** WL-Log journal geometry/policy (ignored by other designs). */
    mem::NvmLogParams log;
    cpu::CoreParams core;
    PlatformParams platform;

    /** Run the crash-consistency oracle at every recovery point. */
    bool validate_consistency = false;
    /**
     * Fault injection (testing the oracle itself): skip the cache's
     * JIT checkpoint at every power failure. A correct oracle MUST
     * flag violations for designs whose persistence depends on the
     * checkpoint (NVSRAM, WL-Cache).
     */
    bool inject_checkpoint_skip = false;
    /**
     * Fault injection: skip the NVFF register checkpoint at every
     * power failure, so the boot-time restore hands the core stale
     * register state. Only the register-file differential check can
     * see this — the NVM oracle cannot.
     */
    bool inject_register_skip = false;
    /** Check every load's value against the recorded trace. */
    bool check_load_values = false;

    /**
     * Forced-outage schedule (verification campaigns, §3.2/§5.3):
     * sorted cycle points at which a power failure is forced
     * regardless of the stored energy — each point fires exactly once,
     * at the first event boundary at or after the requested cycle.
     * Works in infinite-power runs too, which is how the verify
     * campaign engine makes the forced point the *only* outage.
     */
    std::vector<std::uint64_t> forced_outage_cycles;

    /** Give up after this many outages (dead-environment guard). */
    std::uint64_t max_outages = 2'000'000;

    /**
     * Optional telemetry timeline (non-owning, may be null). When set,
     * the system and every component it builds record cycle-stamped
     * events into it. Purely observational — attaching a timeline
     * never changes timing, energy, or results — so this pointer is
     * deliberately NOT part of dumpConfigKey(): cached results remain
     * valid whether or not a run was traced.
     */
    telemetry::TimelineBuffer *timeline = nullptr;

    /**
     * Cap on the per-power-interval rollups a run accumulates into
     * RunResult::intervals (dirty-line high water, cleanings,
     * checkpoint energy per interval). Intervals past the cap are
     * counted in RunResult::intervals_dropped but not stored, so a
     * million-outage run cannot balloon its result record. 0 disables
     * rollup collection entirely.
     */
    unsigned max_interval_rollups = 256;

    /**
     * Preset for a given design: cache technology (SRAM vs NV array),
     * restore voltage, and adaptive defaults per the paper.
     */
    static SystemConfig forDesign(DesignKind kind);
};

/**
 * Write every simulation-affecting field of @p cfg as canonical
 * `key=value` lines, one per configFields() row (nvp/schema.hh), in
 * table order with full double precision. The runner's
 * content-addressed result cache hashes this dump, so two
 * configurations collide exactly when the simulator cannot tell them
 * apart. Adding a SystemConfig field means adding one row to
 * configFields() and bumping runner::kResultSchemaVersion.
 */
void dumpConfigKey(std::ostream &os, const SystemConfig &cfg);

/**
 * @p cfg with every field a snapshot does not depend on reset to a
 * fixed value, for the snapshot compat key to hash. Neutralized: the
 * forced-outage schedule and both fault-injection flags (they only
 * trigger behaviour at or after a scheduled point, so a golden run's
 * prefix snapshot resumes into a point run), max_outages
 * (prefix-invariant: it only decides when to give up), the timeline
 * (observational) and the step mode (both modes are bit-identical, so
 * snapshots resume across modes).
 */
SystemConfig resumeNeutral(SystemConfig cfg);

/**
 * Whether @p cfg gives a WL-family design a DirtyQueue it can run
 * with: wl.maxline <= wl.dq_size, adaptive.maxline_min <=
 * adaptive.maxline_max (the adaptive runtime is built for every
 * WL-family run) and, with adaptation on, adaptive.maxline_max <=
 * wl.dq_size. Other designs always pass. Only reads @p cfg.
 * @return true when runnable; false fills @p why (schema key names).
 */
bool checkWlGeometry(const SystemConfig &cfg, std::string &why);

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SYSTEM_CONFIG_HH
