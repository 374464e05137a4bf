#include "explore/explorer.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "explore/objectives.hh"
#include "explore/pareto.hh"
#include "runner/runner.hh"
#include "sim/logging.hh"

namespace wlcache {
namespace explore {

namespace {

/** Run @p set through a runner configured from @p cfg; adds the
    batch economics to @p report and its job count to @p runs. */
std::vector<nvp::RunResult>
runJobs(const ExploreConfig &cfg, const runner::JobSet &set,
        std::size_t &runs, ExploreReport &report)
{
    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);
    auto results = runner.runAll(set);
    const auto &stats = runner.stats();
    report.cache_hits += stats.cache_hits;
    report.executed += stats.executed;
    runs += stats.total;
    return results;
}

/**
 * The jobs that evaluate @p points: one per point, at @p scale (0
 * keeps each point's own), or under a @p fleet block one per node,
 * node fastest — power_node = n, the block's jitter and the node's
 * mix workload.
 */
runner::JobSet
pointJobs(const std::vector<const DesignPoint *> &points, unsigned scale,
          const std::optional<FleetBlock> &fleet)
{
    runner::JobSet set;
    const std::vector<std::string> pattern =
        fleet ? fleet->workloadPattern() : std::vector<std::string>{};
    for (const DesignPoint *p : points) {
        if (fleet) {
            for (unsigned n = 0; n < fleet->nodes; ++n) {
                nvp::ExperimentSpec spec = p->spec;
                spec.power_node = n;
                spec.power_jitter = fleet->jitter;
                if (!pattern.empty())
                    spec.workload = pattern[n % pattern.size()];
                set.add(std::move(spec), p->id + "#n" + std::to_string(n));
            }
            continue;
        }
        nvp::ExperimentSpec spec = p->spec;
        if (scale != 0)
            spec.scale = scale;
        const std::string label = p->id + "@x" + std::to_string(spec.scale);
        set.add(std::move(spec), label);
    }
    return set;
}

/** Objective vectors for @p points at the scale they just ran. */
std::vector<std::vector<double>>
evalAll(const std::vector<std::string> &names,
        const std::vector<const DesignPoint *> &points,
        const std::vector<nvp::RunResult> &results, unsigned scale)
{
    std::vector<std::vector<double>> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        nvp::ExperimentSpec spec = points[i]->spec;
        spec.scale = scale;
        out.push_back(evalObjectives(names, results[i],
                                     nvp::resolveConfig(spec), spec));
    }
    return out;
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
    if (fleet && cfg.sweep.mode == SearchMode::Halving)
        return fail("a \"fleet\" block cannot use halving search");

    std::vector<DesignPoint> points;
    if (!expandPoints(cfg.sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    // The final rung's scale. Halving owns the scale dimension, so a
    // swept/per-point scale is rejected up front; an exhaustive sweep
    // runs every point at its own scale.
    const unsigned full_scale = points.front().spec.scale;
    if (cfg.sweep.mode == SearchMode::Halving) {
        for (const auto &p : points)
            if (p.spec.scale != full_scale)
                return fail("halving cannot sweep 'scale' (it owns "
                            "the scale dimension; bind scale in "
                            "$.base)");
    }

    ExploreReport report;
    report.name = cfg.sweep.name;
    report.mode = cfg.sweep.mode;
    report.fleet = fleet;
    report.objective_names = objectives;
    report.expanded_points = points.size();
    report.full_scale = full_scale;

    // Survivors, as indices into `points`, kept in expansion order.
    std::vector<std::size_t> alive(points.size());
    std::iota(alive.begin(), alive.end(), 0);

    if (cfg.sweep.mode == SearchMode::Halving &&
        cfg.sweep.min_scale < full_scale && points.size() > 1) {
        // Triage rungs: min_scale, x eta, ... strictly below full.
        for (unsigned scale = cfg.sweep.min_scale;
             scale < full_scale && alive.size() > 1;
             scale *= cfg.sweep.eta) {
            std::vector<const DesignPoint *> entrants;
            for (const std::size_t i : alive)
                entrants.push_back(&points[i]);
            const std::vector<nvp::RunResult> results =
                runJobs(cfg, pointJobs(entrants, scale, std::nullopt),
                        report.triage_runs, report);
            const std::vector<std::vector<double>> objs =
                evalAll(objectives, entrants, results, scale);

            // Promote ceil(n/eta) by non-dominated rank, then
            // objective vector, then id — whole Pareto fronts
            // survive while they fit the quota.
            const auto ranks = paretoRanks(objs);
            std::vector<std::size_t> order(alive.size());
            std::iota(order.begin(), order.end(), 0);
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (ranks[a] != ranks[b])
                              return ranks[a] < ranks[b];
                          if (objs[a] != objs[b])
                              return objs[a] < objs[b];
                          return entrants[a]->id < entrants[b]->id;
                      });
            const std::size_t keep =
                (alive.size() + cfg.sweep.eta - 1) / cfg.sweep.eta;
            std::vector<std::size_t> promoted;
            for (std::size_t k = 0; k < keep; ++k)
                promoted.push_back(alive[order[k]]);
            std::sort(promoted.begin(), promoted.end());

            report.rungs.push_back(
                { scale, alive.size(), promoted.size() });
            alive = std::move(promoted);
        }
    }

    // Final rung: the survivors at full scale, once per node under a
    // fleet block.
    std::vector<const DesignPoint *> entrants;
    for (const std::size_t i : alive)
        entrants.push_back(&points[i]);
    const runner::JobSet set = pointJobs(entrants, 0, fleet);
    const std::vector<nvp::RunResult> results =
        runJobs(cfg, set, report.full_runs, report);
    if (cfg.sweep.mode == SearchMode::Halving)
        report.rungs.push_back({ full_scale, alive.size(), alive.size() });

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    std::size_t job = 0;
    for (const DesignPoint *p : entrants) {
        PointOutcome o;
        o.point = *p;
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
                               nvp::resolveConfig(p->spec), p->spec);
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
