#include "nvp/system_config.hh"

#include <ostream>

#include "nvp/schema.hh"
#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

/**
 * One row per design: its figure name; the short names the tools and
 * sweep specs accept ('|'-separated, the primary name first, then
 * aliases); the restore / JIT-checkpoint voltages of its preset; the
 * rule that derives its run-time thresholds from them; and the I-cache
 * it pairs with. Row order is the order listings and `--design all`
 * use.
 *
 * Voltages follow Table 2. NVSRAM checkpoints at 3.1 V and restores
 * at 3.5 V (the full-cache backup needs the largest margins);
 * NVSRAM-practical needs headroom for its SRAM half only (Table 1);
 * WT+Buffer needs a bigger margin than plain WT to drain the buffer
 * failure-atomically (section 3.3). WL-Cache spans 2.95~3.1 /
 * 3.3~3.5 by maxline through the wl_* threshold schedule, which
 * starts from these bases; WL-Log keeps the same preset, its
 * slightly costlier checkpoint appends being absorbed by the
 * design's own checkpointEnergyBound().
 */
struct DesignRow
{
    DesignKind kind;
    const char *name;
    const char *short_names;
    double von;
    double vbackup;
    ThresholdRule thresholds;
    cache::ICacheKind icache;
};

using enum DesignKind;
using enum ThresholdRule;
using enum cache::ICacheKind;

constexpr DesignRow kDesigns[] = {
    { NoCache, "NVP-NoCache", "nocache", 3.3, 2.9, Preset, None },
    { VCacheWT, "VCache-WT", "wt|vcache-wt", 3.3, 2.9, Preset, Volatile },
    { WtBuffered, "WT+Buffer", "wtbuf|wt-buffer", 3.3, 2.95, Preset,
      Volatile },
    { NVCacheWB, "NVCache-WB", "nvcache|nvc", 3.3, 2.9, Preset,
      NonVolatile },
    { NvsramWB, "NVSRAM-WB", "nvsram", 3.5, 3.1, WorstCase, WarmRestore },
    { NvsramFull, "NVSRAM-full", "nvsram-full", 3.5, 3.1, WorstCase,
      WarmRestore },
    { NvsramPractical, "NVSRAM-practical", "nvsram-practical|nvsram-prac",
      3.4, 3.0, WorstCase, Volatile },
    { Replay, "ReplayCache", "replay", 3.3, 2.9, Preset, Volatile },
    { WL, "WL-Cache", "wl", 3.3, 2.95, Maxline, Volatile },
    { WLLog, "WL-Log", "wllog|wl-log", 3.3, 2.95, Maxline, Volatile },
};

const DesignRow &
designRow(DesignKind kind)
{
    for (const DesignRow &d : kDesigns)
        if (d.kind == kind)
            return d;
    panic("unknown DesignKind %d", static_cast<int>(kind));
}

} // anonymous namespace

const char *
designKindName(DesignKind kind)
{
    return designRow(kind).name;
}

cache::ICacheKind
icacheKind(DesignKind kind)
{
    return designRow(kind).icache;
}

ThresholdRule
thresholdRule(DesignKind kind)
{
    return designRow(kind).thresholds;
}

bool
designKindFromName(const std::string &name, DesignKind &out)
{
    for (const DesignRow &d : kDesigns) {
        if (name == d.name) {
            out = d.kind;
            return true;
        }
    }
    return false;
}

bool
designFromShortName(const std::string &name, DesignKind &out)
{
    const std::string n = util::toLower(name);
    for (const DesignRow &d : kDesigns) {
        for (const std::string &alias : util::split(d.short_names, '|')) {
            if (n == alias) {
                out = d.kind;
                return true;
            }
        }
    }
    return false;
}

std::vector<std::string>
designShortNames()
{
    std::vector<std::string> names;
    for (const DesignRow &d : kDesigns)
        names.push_back(util::split(d.short_names, '|').front());
    return names;
}

const char *
stepModeName(StepMode mode)
{
    switch (mode) {
      case StepMode::Percycle:  return "percycle";
      case StepMode::SkipAhead: return "skip_ahead";
    }
    panic("unknown StepMode %d", static_cast<int>(mode));
}

bool
stepModeFromName(const std::string &name, StepMode &out)
{
    for (const StepMode m : { StepMode::Percycle, StepMode::SkipAhead }) {
        if (name == stepModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

SystemConfig
SystemConfig::forDesign(DesignKind kind)
{
    SystemConfig cfg;
    cfg.design = kind;
    // The paper's FIFO I-side replacement matters little; keep LRU
    // defaults on both and let experiments override.
    cfg.dcache = kind == DesignKind::NVCacheWB ? cache::nvCacheParams()
                                               : cache::sramCacheParams();
    cfg.icache = cfg.dcache;
    cfg.nvsram.backup_full = kind == DesignKind::NvsramFull;
    cfg.platform.von = designRow(kind).von;
    cfg.platform.vbackup = designRow(kind).vbackup;
    if (isWlFamily(kind)) {
        cfg.adaptive.enabled = true;
        // Paper section 6.6: observed maxline range 2..6 with |DQ| = 8.
        cfg.adaptive.maxline_min = 2;
        cfg.adaptive.maxline_max = cfg.wl.dq_size - 2;
    }
    return cfg;
}

void
dumpConfigKey(std::ostream &os, const SystemConfig &cfg)
{
    dumpFields(os, configFields(), &cfg);
}

SystemConfig
resumeNeutral(SystemConfig cfg)
{
    cfg.forced_outage_cycles.clear();
    cfg.inject_checkpoint_skip = false;
    cfg.inject_register_skip = false;
    cfg.max_outages = 0;
    cfg.timeline = nullptr;
    cfg.step_mode = StepMode::SkipAhead;
    return cfg;
}

bool
checkWlGeometry(const SystemConfig &cfg, std::string &why)
{
    if (!isWlFamily(cfg.design))
        return true;
    auto exceeds = [&why](const char *a, unsigned av, const char *b,
                          unsigned bv) {
        why = std::string(a) + " " + std::to_string(av) + " exceeds " +
            b + " " + std::to_string(bv);
        return false;
    };
    const unsigned dq = cfg.wl.dq_size;
    if (cfg.wl.maxline > dq)
        return exceeds("wl.maxline", cfg.wl.maxline, "wl.dq_size", dq);
    const core::AdaptiveConfig &ad = cfg.adaptive;
    if (ad.maxline_min > ad.maxline_max)
        return exceeds("adaptive.maxline_min", ad.maxline_min,
                       "adaptive.maxline_max", ad.maxline_max);
    if (ad.enabled && ad.maxline_max > dq)
        return exceeds("adaptive.maxline_max", ad.maxline_max,
                       "wl.dq_size", dq);
    return true;
}

} // namespace nvp
} // namespace wlcache
