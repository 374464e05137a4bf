#include "explore/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/csv.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace wlcache {
namespace explore {

namespace {

/** Deterministic short-form double ("%.9g"). */
std::string
fmtObjective(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Union of bound parameter names, first-appearance order. */
std::vector<std::string>
paramColumns(const ExploreReport &report)
{
    std::vector<std::string> cols;
    for (const auto &o : report.outcomes)
        for (const auto &[name, value] : o.point.params) {
            (void)value;
            if (std::find(cols.begin(), cols.end(), name) ==
                cols.end())
                cols.push_back(name);
        }
    return cols;
}

} // anonymous namespace

void
writeCsv(std::ostream &os, const ExploreReport &report)
{
    CsvWriter csv(os);
    const auto cols = paramColumns(report);

    std::vector<std::string> header{ "id" };
    header.insert(header.end(), cols.begin(), cols.end());
    header.insert(header.end(), report.objective_names.begin(),
                  report.objective_names.end());
    header.insert(header.end(), { "frontier", "completed", "run_key" });
    csv.row(header);

    for (const auto &o : report.outcomes) {
        std::vector<std::string> row{ o.point.id };
        for (const auto &c : cols) {
            const ParamValue *v = findBinding(o.point.params, c);
            row.push_back(v ? v->display() : "-");
        }
        for (const double obj : o.objectives)
            row.push_back(fmtObjective(obj));
        row.insert(row.end(), { o.on_frontier ? "1" : "0",
                                o.result.completed ? "1" : "0",
                                o.run_key });
        csv.row(row);
    }
}

void
writeFrontierMarkdown(std::ostream &os, const ExploreReport &report,
                      const std::string &cache_dir)
{
    os << "# Exploration frontier: " << report.name << "\n\n";
    // "exhaustive" is fixed wording: reports stay byte-identical to
    // those written by earlier versions.
    os << "- search: exhaustive, " << report.expanded_points
       << " points expanded, " << report.outcomes.size()
       << " evaluated at full scale (x" << report.min_scale;
    if (report.max_scale != report.min_scale)
        os << "..x" << report.max_scale;
    os << ")\n";
    os << "- objectives (all minimized):";
    for (const auto &name : report.objective_names)
        os << " " << name;
    os << "\n- frontier: " << report.frontier.size() << " point"
       << (report.frontier.size() == 1 ? "" : "s") << "\n\n";

    os << "| # | point |";
    for (const auto &name : report.objective_names)
        os << " " << name << " |";
    os << " run record |\n";
    os << "|---|-------|";
    for (std::size_t i = 0; i < report.objective_names.size(); ++i)
        os << "---|";
    os << "---|\n";
    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        os << "| " << ++n << " | `" << o.point.id << "` |";
        for (const double obj : o.objectives)
            os << " " << fmtObjective(obj) << " |";
        os << " `";
        if (!cache_dir.empty())
            os << cache_dir << "/";
        os << o.run_key << (cache_dir.empty() ? "" : ".json") << "` |\n";
    }

    os << "\nEach run record is the content-addressed run JSON in "
          "the result cache; it carries the point's full structured "
          "stats tree and per-power-interval rollups. Re-running the "
          "same spec with the same `--cache-dir` serves every point "
          "from the cache, and `wlcache_sim --timeline` on a "
          "frontier point's parameters captures its event "
          "timeline.\n";
}

void
writeSummaryText(std::ostream &os, const ExploreReport &report)
{
    // "exhaustive" and "+ 0 triage" are fixed wording, as in the
    // Markdown report.
    os << "=== " << report.name << ": " << report.expanded_points
       << " points, " << report.outcomes.size() << " at full scale, "
       << report.frontier.size() << " on the frontier (exhaustive) ===\n";
    util::TextTable t;
    std::vector<std::string> header{ "#", "point" };
    for (const auto &name : report.objective_names)
        header.push_back(name);
    t.header(header);
    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        std::vector<std::string> row{ std::to_string(++n),
                                      o.point.id };
        for (const double v : o.objectives)
            row.push_back(fmtObjective(v));
        t.row(row);
    }
    t.print(os);
    os << "runs: " << report.full_runs << " full-scale + 0 triage, "
       << report.cache_hits << " cached, " << report.executed
       << " executed\n";
}

} // namespace explore
} // namespace wlcache
