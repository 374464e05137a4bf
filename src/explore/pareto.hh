/**
 * @file
 * Multi-objective Pareto machinery over plain objective vectors
 * (minimization throughout). Deterministic by construction: the
 * frontier comes back sorted by objective vector with point ids
 * breaking exact ties, so two runs over the same results render
 * byte-identical reports.
 */

#ifndef WLCACHE_EXPLORE_PARETO_HH
#define WLCACHE_EXPLORE_PARETO_HH

#include <cstddef>
#include <string>
#include <vector>

namespace wlcache {
namespace explore {

/**
 * True when @p a dominates @p b: no worse in every objective and
 * strictly better in at least one (vectors must be the same length).
 */
bool dominates(const std::vector<double> &a,
               const std::vector<double> &b);

/**
 * Indices of the non-dominated points of @p objectives. Points with
 * exactly equal vectors are all kept (they are genuinely equivalent
 * designs). The result is ordered by objective vector
 * (lexicographically ascending), with @p ids as the final
 * tie-breaker — a deterministic order independent of input order.
 *
 * @param objectives One minimization vector per point.
 * @param ids One stable identifier per point (tie-breaking).
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<std::vector<double>> &objectives,
               const std::vector<std::string> &ids);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_PARETO_HH
