#include "explore/explorer.hh"

#include <algorithm>

#include "explore/objectives.hh"
#include "explore/pareto.hh"
#include "runner/runner.hh"

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

} // anonymous namespace

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
    std::vector<std::string> objectives =
        !cfg.objectives.empty()         ? cfg.objectives
        : !cfg.sweep.objectives.empty() ? cfg.sweep.objectives
                                        : std::vector<std::string>{
                                              "time", "nvm_writes" };
    for (const auto &name : objectives)
        if (!checkObjective(name, err))
            return false;

    std::vector<DesignPoint> points;
    if (!expandPoints(cfg.sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    ExploreReport report;
    report.name = cfg.sweep.name;
    report.objective_names = objectives;
    report.expanded_points = points.size();
    const auto [lo, hi] = std::minmax_element(
        points.begin(), points.end(),
        [](const DesignPoint &a, const DesignPoint &b) {
            return a.spec.scale < b.spec.scale;
        });
    report.min_scale = lo->spec.scale;
    report.max_scale = hi->spec.scale;

    // Every point at its own scale.
    runner::JobSet set;
    for (const DesignPoint &p : points)
        set.add(p.spec, p.id + "@x" + std::to_string(p.spec.scale));
    const std::vector<nvp::RunResult> results =
        runJobs(cfg, set, report);

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointOutcome o;
        o.point = std::move(points[i]);
        o.result = results[i];
        o.run_key = set[i].key;
        o.objectives = evalObjectives(objectives, o.result,
                                      nvp::resolveConfig(o.point.spec),
                                      o.point.spec);
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
