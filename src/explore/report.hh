/**
 * @file
 * Exploration report writers: a machine-readable CSV of every
 * evaluated point and a human-readable Markdown frontier
 * report with per-point pointers to the run-record artifacts (the
 * content-addressed run JSONs carrying each point's structured stats
 * and interval rollups). Both writers are deterministic — no
 * timestamps, no wall-clock, no cache economics — so two runs of the
 * same spec produce byte-identical files whether run cold or from the
 * result cache. A report with a fleet block renders its fleet form:
 * per-point fleet objectives and totals instead of run keys, and a
 * per-node breakdown of the first frontier point.
 */

#ifndef WLCACHE_EXPLORE_REPORT_HH
#define WLCACHE_EXPLORE_REPORT_HH

#include <iosfwd>
#include <string>

#include "explore/explorer.hh"

namespace wlcache {
namespace explore {

/**
 * Write every outcome as CSV: point id, one column per swept
 * parameter (union across points; '-' where a point does not bind
 * one), the objective values, the frontier flag, completion, and the
 * content-addressed run key — for a fleet, the completed-node count
 * and fleet totals instead of the last two.
 */
void writeCsv(std::ostream &os, const ExploreReport &report);

/**
 * Write the Markdown frontier report. @p cache_dir (the exploration's
 * result-cache directory, may be empty) turns each frontier point's
 * run key into a path to its run-record JSON artifact. A fleet report
 * has the scenario header (nodes, jitter, objectives), the frontier
 * with completed nodes, and a per-node table of the first frontier
 * point instead.
 */
void writeFrontierMarkdown(std::ostream &os,
                           const ExploreReport &report,
                           const std::string &cache_dir);

/**
 * Write the human-readable frontier summary (the one-shot CLI's
 * stdout block: header, frontier table, run economics). Only the run-economics line depends on cache warmth.
 */
void writeSummaryText(std::ostream &os, const ExploreReport &report);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_REPORT_HH
