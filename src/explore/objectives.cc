#include "explore/objectives.hh"

#include <algorithm>
#include <cmath>

#include "hwcost/cacti_lite.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
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

/**
 * "pXX fleet forward progress": the rate met (or exceeded) by XX% of
 * the fleet — the nearest-rank (100-XX)th percentile of the per-node
 * progress rates, negated so minimizing raises the fleet's tail.
 */
double
tailProgress(const std::vector<NodeResult> &nodes, double xx)
{
    std::vector<double> rates;
    rates.reserve(nodes.size());
    for (const NodeResult &n : nodes)
        rates.push_back(nodeProgressRate(n.result));
    return -percentileNearestRank(std::move(rates), 100.0 - xx);
}

/** Sum of @p f over the nodes' results, in node order. */
template <typename F>
double
sumNodes(const std::vector<NodeResult> &nodes, F f)
{
    double sum = 0.0;
    for (const NodeResult &n : nodes)
        sum += f(n.result);
    return sum;
}

/** Mean of @p f over the nodes' results; 0 without nodes. */
template <typename F>
double
meanNodes(const std::vector<NodeResult> &nodes, F f)
{
    return nodes.empty() ? 0.0
                         : sumNodes(nodes, f) /
                               static_cast<double>(nodes.size());
}

bool
meetsDeadline(const nvp::RunResult &r, const FleetBlock &fleet)
{
    return r.completed &&
           (fleet.deadline_cycles == 0 ||
            r.total_seconds <= cyclesToSeconds(
                                   static_cast<Cycle>(fleet.deadline_cycles)));
}

} // anonymous namespace

double
percentileNearestRank(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (pct <= 0.0)
        return values.front();
    if (pct >= 100.0)
        return values.back();
    // 1-based nearest rank: ceil(pct/100 * N), clamped to [1, N] so
    // floating-point edge cases can never index out of range.
    const double n = static_cast<double>(values.size());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n)), 1,
        values.size());
    return values[rank - 1];
}

double
nodeProgressRate(const nvp::RunResult &r)
{
    return r.total_seconds > 0.0
               ? static_cast<double>(r.instructions) / r.total_seconds
               : 0.0;
}

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
    using N = std::vector<NodeResult>;
    using F = FleetBlock;
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
        { "fleet_p50_progress",
          "forward-progress rate met by half the fleet "
          "(median, negated to maximize)",
          nullptr,
          [](const N &nodes, const F &) {
              return tailProgress(nodes, 50.0);
          } },
        { "fleet_p90_progress",
          "forward-progress rate met by 90% of the fleet "
          "(negated to maximize)",
          nullptr,
          [](const N &nodes, const F &) {
              return tailProgress(nodes, 90.0);
          } },
        { "fleet_p99_progress",
          "forward-progress rate met by 99% of the fleet "
          "(negated to maximize)",
          nullptr,
          [](const N &nodes, const F &) {
              return tailProgress(nodes, 99.0);
          } },
        { "fleet_mean_progress",
          "mean per-node forward-progress rate (negated to maximize)",
          nullptr,
          [](const N &nodes, const F &) {
              return -meanNodes(nodes, nodeProgressRate);
          } },
        { "fleet_wear_total",
          "fleet-total NVM line writes (endurance budget consumed "
          "across every node)",
          nullptr,
          [](const N &nodes, const F &) {
              return sumNodes(nodes, [](const R &r) {
                  return static_cast<double>(r.nvm_writes);
              });
          } },
        { "fleet_wear_max",
          "worst single-line write count anywhere in the fleet "
          "(needs nvm.track_wear)",
          nullptr,
          [](const N &nodes, const F &) {
              std::uint64_t worst = 0;
              for (const NodeResult &n : nodes)
                  worst = std::max(worst, n.result.nvm_device.wear_max);
              return static_cast<double>(worst);
          } },
        { "fleet_energy_total",
          "fleet-total consumed energy in joules",
          nullptr,
          [](const N &nodes, const F &) {
              return sumNodes(nodes,
                              [](const R &r) { return r.meter.total(); });
          } },
        { "fleet_deadline_miss",
          "fraction of nodes missing the cycle deadline "
          "(deadline_cycles; 0 counts bare completion)",
          nullptr,
          [](const N &nodes, const F &fleet) {
              return meanNodes(nodes, [&](const R &r) {
                  return meetsDeadline(r, fleet) ? 0.0 : 1.0;
              });
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
checkObjective(const std::string &name, bool fleet, std::string *err)
{
    const ObjectiveDef *def = findObjective(name);
    std::string why;
    if (!def)
        why = "unknown objective '" + name + "' (valid: " +
              objectiveNameList() + ")";
    else if (fleet && !def->reduce)
        why = "objective '" + name + "' is per-run; a \"fleet\" block "
              "takes fleet_* objectives";
    else if (!fleet && def->reduce)
        why = "objective '" + name + "' needs a \"fleet\" block";
    if (!why.empty() && err)
        *err = why;
    return why.empty();
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
        wlc_assert(def && def->eval, "not a per-run objective: '%s'",
                   name.c_str());
        out.push_back(def->eval(r, cfg, spec));
    }
    return out;
}

} // namespace explore
} // namespace wlcache
