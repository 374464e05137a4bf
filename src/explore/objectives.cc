#include "explore/objectives.hh"

#include <algorithm>

#include "hwcost/cacti_lite.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace wlcache {
namespace explore {

namespace {

/**
 * Execution time with the fig-10b convention for runs that did not
 * finish: extrapolate by instruction progress so a design that
 * thrashes still lands on a comparable (and suitably terrible)
 * number instead of vanishing from the trade-off space.
 */
double
adjustedTimeS(const nvp::RunResult &r, const nvp::ExperimentSpec &spec)
{
    if (r.completed)
        return r.total_seconds;
    const auto &trace = workloads::getTrace(spec.workload, spec.scale,
                                            spec.workload_seed);
    const double progress = static_cast<double>(r.instructions) /
                            static_cast<double>(
                                trace.totalInstructions());
    return progress > 1.0e-6 ? r.total_seconds / progress : 1.0e6;
}

} // anonymous namespace

double
checkpointReserveJ(const nvp::SystemConfig &cfg)
{
    // The simulator sizes the thresholds (WL's maxline schedule,
    // NVSRAM's array-scaled Vbackup); read the reserve it derived.
    const workloads::BuiltTrace no_trace;
    const energy::PowerTrace no_power;
    const nvp::SystemSim sim(cfg, no_trace, no_power,
                             /*infinite_power=*/true);
    return std::max(0.0, sim.checkpointReserveJ());
}

double
hardwareAreaMm2(const nvp::SystemConfig &cfg)
{
    const hwcost::CactiLite model;
    double area = 0.0;
    if (cfg.design != nvp::DesignKind::NoCache) {
        area += model
                    .cacheArray(cfg.dcache.size_bytes,
                                cfg.dcache.line_bytes,
                                cfg.dcache.assoc)
                    .area_mm2;
        area += model
                    .cacheArray(cfg.icache.size_bytes,
                                cfg.icache.line_bytes,
                                cfg.icache.assoc)
                    .area_mm2;
    }
    if (nvp::isWlFamily(cfg.design))
        area += model.dirtyQueue(cfg.wl.dq_size).area_mm2;
    return area;
}

const std::vector<ObjectiveDef> &
allObjectives()
{
    using R = nvp::RunResult;
    using C = nvp::SystemConfig;
    using S = nvp::ExperimentSpec;
    static const std::vector<ObjectiveDef> defs = {
        { "time",
          "execution time in seconds (DNF runs extrapolated by "
          "instruction progress)",
          [](const R &r, const C &, const S &s) {
              return adjustedTimeS(r, s);
          } },
        { "energy", "total consumed energy in joules",
          [](const R &r, const C &, const S &) {
              return r.meter.total();
          } },
        { "nvm_writes", "NVM write operations",
          [](const R &r, const C &, const S &) {
              return static_cast<double>(r.nvm_writes);
          } },
        { "nvm_bytes", "bytes written to NVM",
          [](const R &r, const C &, const S &) {
              return static_cast<double>(r.nvm_bytes_written);
          } },
        { "outages", "power failures endured",
          [](const R &r, const C &, const S &) {
              return static_cast<double>(r.outages);
          } },
        { "ckpt_reserve",
          "JIT-checkpoint energy reserve in joules "
          "(capacitor energy set aside between Vbackup and Vmin)",
          [](const R &, const C &cfg, const S &) {
              return checkpointReserveJ(cfg);
          } },
        { "hw_area",
          "first-order silicon area in mm^2 (CACTI-lite: caches plus "
          "the WL DirtyQueue)",
          [](const R &, const C &cfg, const S &) {
              return hardwareAreaMm2(cfg);
          } },
        { "nvm_lifetime",
          "negated min-line write headroom (endurance budget minus "
          "the most-worn line's count; maximizing, so negated here; "
          "requires nvm.track_wear)",
          [](const R &r, const C &, const S &) {
              return -static_cast<double>(r.nvm_device.lifetime_headroom);
          } },
        { "nvm_wear_max",
          "highest per-line NVM write count "
          "(requires nvm.track_wear)",
          [](const R &r, const C &, const S &) {
              return static_cast<double>(r.nvm_device.wear_max);
          } },
        { "nvm_write_p99_latency",
          "99th-percentile NVM write latency in cycles (log2 "
          "histogram upper bound)",
          [](const R &r, const C &, const S &) {
              return r.nvm_device.write_p99_latency;
          } },
    };
    return defs;
}

const ObjectiveDef *
findObjective(const std::string &name)
{
    for (const auto &d : allObjectives())
        if (name == d.name)
            return &d;
    return nullptr;
}

std::string
objectiveNameList()
{
    std::string list;
    for (const auto &d : allObjectives()) {
        if (!list.empty())
            list += ", ";
        list += d.name;
    }
    return list;
}

bool
checkObjective(const std::string &name, std::string *err)
{
    if (findObjective(name))
        return true;
    if (err)
        *err = "unknown objective '" + name + "' (valid: " +
               objectiveNameList() + ")";
    return false;
}

std::vector<double>
evalObjectives(const std::vector<std::string> &names,
               const nvp::RunResult &r, const nvp::SystemConfig &cfg,
               const nvp::ExperimentSpec &spec)
{
    std::vector<double> out;
    out.reserve(names.size());
    for (const auto &name : names) {
        const ObjectiveDef *def = findObjective(name);
        wlc_assert(def != nullptr, "unknown objective '%s'", name.c_str());
        out.push_back(def->eval(r, cfg, spec));
    }
    return out;
}

} // namespace explore
} // namespace wlcache
