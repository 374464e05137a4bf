#include "explore/explorer.hh"

#include <algorithm>
#include <cmath>

#include "explore/objectives.hh"
#include "explore/pareto.hh"
#include "runner/runner.hh"
#include "sim/logging.hh"

namespace wlcache {
namespace explore {

namespace {

/** Run @p set through a runner configured from @p cfg; records the
    batch economics in @p report. */
std::vector<nvp::RunResult>
runJobs(const ExploreConfig &cfg, const runner::JobSet &set,
        ExploreReport &report)
{
    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);
    auto results = runner.runAll(set);
    const auto &stats = runner.stats();
    report.full_runs = stats.total;
    report.cache_hits = stats.cache_hits;
    report.executed = stats.executed;
    return results;
}

/**
 * The jobs that evaluate @p points: one per point, or under a @p fleet
 * block one per node, node fastest — power_node = n, the block's
 * jitter and the node's mix workload.
 */
runner::JobSet
pointJobs(const std::vector<DesignPoint> &points,
          const std::optional<FleetBlock> &fleet)
{
    runner::JobSet set;
    const std::vector<std::string> pattern =
        fleet ? fleet->workloadPattern() : std::vector<std::string>{};
    for (const DesignPoint &p : points) {
        if (fleet) {
            for (unsigned n = 0; n < fleet->nodes; ++n) {
                nvp::ExperimentSpec spec = p.spec;
                spec.power_node = n;
                spec.power_jitter = fleet->jitter;
                if (!pattern.empty())
                    spec.workload = pattern[n % pattern.size()];
                set.add(std::move(spec), p.id + "#n" + std::to_string(n));
            }
            continue;
        }
        set.add(p.spec, p.id + "@x" + std::to_string(p.spec.scale));
    }
    return set;
}

} // anonymous namespace

void
aggregatePoint(PointOutcome &out, const FleetBlock &fleet,
               const std::vector<std::string> &objective_names)
{
    // Reduction order must not depend on delivery order: node id is
    // the one stable sort key a worker pool cannot permute.
    std::sort(out.nodes.begin(), out.nodes.end(),
              [](const NodeResult &a, const NodeResult &b) {
                  return a.node < b.node;
              });
    out.total_instructions = out.total_nvm_writes = out.total_outages = 0;
    out.completed_nodes = 0;
    for (const NodeResult &n : out.nodes) {
        out.total_instructions += n.result.instructions;
        out.total_nvm_writes += n.result.nvm_writes;
        out.total_outages += n.result.outages;
        if (n.result.completed)
            ++out.completed_nodes;
    }
    out.objectives.clear();
    for (const std::string &name : objective_names) {
        const ObjectiveDef *def = findObjective(name);
        wlc_assert(def && def->reduce, "not a fleet objective: '%s'",
                   name.c_str());
        // A non-finite reduction must never reach a report.
        const double v = def->reduce(out.nodes, fleet);
        out.objectives.push_back(std::isfinite(v) ? v : 0.0);
    }
}

bool
runExploration(const ExploreConfig &cfg, ExploreReport &out,
               std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    // Resolve objectives: config overrides sweep, default otherwise.
    // parseSweepSpec checked the sweep's own; this catches overrides.
    const std::optional<FleetBlock> &fleet = cfg.sweep.fleet;
    std::vector<std::string> objectives =
        !cfg.objectives.empty()       ? cfg.objectives
        : !cfg.sweep.objectives.empty() ? cfg.sweep.objectives
        : fleet ? std::vector<std::string>{ "fleet_p99_progress",
                                            "fleet_wear_total" }
                : std::vector<std::string>{ "time", "nvm_writes" };
    for (const auto &name : objectives)
        if (!checkObjective(name, fleet.has_value(), err))
            return false;

    std::vector<DesignPoint> points;
    if (!expandPoints(cfg.sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    ExploreReport report;
    report.name = cfg.sweep.name;
    report.fleet = fleet;
    report.objective_names = objectives;
    report.expanded_points = points.size();
    const auto [lo, hi] = std::minmax_element(
        points.begin(), points.end(),
        [](const DesignPoint &a, const DesignPoint &b) {
            return a.spec.scale < b.spec.scale;
        });
    report.min_scale = lo->spec.scale;
    report.max_scale = hi->spec.scale;

    // Every point at its own scale, once per node under a fleet block.
    const runner::JobSet set = pointJobs(points, fleet);
    const std::vector<nvp::RunResult> results =
        runJobs(cfg, set, report);

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    std::size_t job = 0;
    for (DesignPoint &p : points) {
        PointOutcome o;
        o.point = std::move(p);
        if (fleet) {
            for (unsigned n = 0; n < fleet->nodes; ++n, ++job)
                o.nodes.push_back({ n, set[job].spec.workload,
                                    set[job].key, results[job] });
            aggregatePoint(o, *fleet, objectives);
        } else {
            o.result = results[job];
            o.run_key = set[job++].key;
            o.objectives =
                evalObjectives(objectives, o.result,
                               nvp::resolveConfig(o.point.spec),
                               o.point.spec);
        }
        objs.push_back(o.objectives);
        ids.push_back(o.point.id);
        report.outcomes.push_back(std::move(o));
    }

    report.frontier = paretoFrontier(objs, ids);
    for (const std::size_t i : report.frontier)
        report.outcomes[i].on_frontier = true;

    out = std::move(report);
    return true;
}

} // namespace explore
} // namespace wlcache
