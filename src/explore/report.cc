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

/**
 * The Markdown frontier table. @p last names the final column and
 * @p cell writes it for one point.
 */
template <typename Cell>
void
writeMarkdownFrontier(std::ostream &os, const ExploreReport &report,
                      const char *last, Cell cell)
{
    os << "| # | point |";
    for (const auto &name : report.objective_names)
        os << " " << name << " |";
    os << " " << last << " |\n";
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
        os << " ";
        cell(o);
        os << " |\n";
    }
}

void
writeFleetMarkdown(std::ostream &os, const ExploreReport &report)
{
    const unsigned nodes = report.fleet->nodes;
    os << "# Fleet report: " << report.name << "\n\n";
    os << "- fleet: " << nodes << " node" << (nodes == 1 ? "" : "s")
       << ", power jitter " << fmtObjective(report.fleet->jitter)
       << " (shared environment envelope, node-seeded gain)\n";
    os << "- points: " << report.outcomes.size() << " evaluated, "
       << report.frontier.size() << " on the frontier\n";
    os << "- objectives (all minimized):";
    for (const auto &name : report.objective_names)
        os << " " << name;
    os << "\n\n";

    writeMarkdownFrontier(os, report, "completed",
                          [&](const PointOutcome &o) {
                              os << o.completed_nodes << "/"
                                 << o.nodes.size();
                          });

    if (!report.frontier.empty()) {
        const PointOutcome &w = report.outcomes[report.frontier.front()];
        os << "\n## Per-node breakdown: `" << w.point.id << "`\n\n";
        os << "| node | workload | progress (insn/s) | outages | "
              "nvm writes | completed |\n";
        os << "|------|----------|-------------------|---------|"
              "------------|-----------|\n";
        for (const NodeResult &nr : w.nodes) {
            os << "| " << nr.node << " | " << nr.workload << " | "
               << fmtObjective(nodeProgressRate(nr.result)) << " | "
               << nr.result.outages << " | " << nr.result.nvm_writes
               << " | " << (nr.result.completed ? "yes" : "no")
               << " |\n";
        }
    }

    os << "\nEvery per-node run is an ordinary content-addressed "
          "single-node experiment (spec lines `power_node`/"
          "`power_jitter` select the derived trace), so re-running "
          "the same fleet spec against the same cache executes "
          "nothing.\n";
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
    header.push_back("frontier");
    if (report.fleet)
        header.insert(header.end(),
                      { "completed_nodes", "total_instructions",
                        "total_nvm_writes", "total_outages" });
    else
        header.insert(header.end(), { "completed", "run_key" });
    csv.row(header);

    for (const auto &o : report.outcomes) {
        std::vector<std::string> row{ o.point.id };
        for (const auto &c : cols) {
            const ParamValue *v = findBinding(o.point.params, c);
            row.push_back(v ? v->display() : "-");
        }
        for (const double obj : o.objectives)
            row.push_back(fmtObjective(obj));
        row.push_back(o.on_frontier ? "1" : "0");
        if (report.fleet)
            row.insert(row.end(),
                       { std::to_string(o.completed_nodes),
                         std::to_string(o.total_instructions),
                         std::to_string(o.total_nvm_writes),
                         std::to_string(o.total_outages) });
        else
            row.insert(row.end(),
                       { o.result.completed ? "1" : "0", o.run_key });
        csv.row(row);
    }
}

void
writeFrontierMarkdown(std::ostream &os, const ExploreReport &report,
                      const std::string &cache_dir)
{
    if (report.fleet)
        return writeFleetMarkdown(os, report);

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

    writeMarkdownFrontier(os, report, "run record",
                          [&](const PointOutcome &o) {
                              os << "`";
                              if (!cache_dir.empty())
                                  os << cache_dir << "/";
                              os << o.run_key
                                 << (cache_dir.empty() ? "" : ".json")
                                 << "`";
                          });

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
    if (report.fleet)
        os << "=== " << report.name << ": " << report.fleet->nodes
           << " nodes x " << report.outcomes.size() << " points, "
           << report.frontier.size() << " on the frontier ===\n";
    else
        os << "=== " << report.name << ": " << report.expanded_points
           << " points, " << report.outcomes.size()
           << " at full scale, " << report.frontier.size()
           << " on the frontier (exhaustive) ===\n";
    util::TextTable t;
    std::vector<std::string> header{ "#", "point" };
    for (const auto &name : report.objective_names)
        header.push_back(name);
    if (report.fleet)
        header.push_back("completed");
    t.header(header);
    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        std::vector<std::string> row{ std::to_string(++n),
                                      o.point.id };
        for (const double v : o.objectives)
            row.push_back(fmtObjective(v));
        if (report.fleet)
            row.push_back(std::to_string(o.completed_nodes) + "/" +
                          std::to_string(o.nodes.size()));
        t.row(row);
    }
    t.print(os);
    os << "runs: " << report.full_runs << " full-scale + 0 triage, "
       << report.cache_hits << " cached, " << report.executed
       << " executed\n";
}

} // namespace explore
} // namespace wlcache
