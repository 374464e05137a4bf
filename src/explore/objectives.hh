/**
 * @file
 * Objective registry for design-space exploration: named scalar
 * figures of merit, each with an optimization direction. A per-run
 * objective is extracted from one finished run (and its resolved
 * configuration); a fleet objective (fleet_*) reduces the node
 * results of one point under a fleet block — forward-progress
 * percentiles, fleet-total and worst-line NVM wear, energy, and the
 * fraction of nodes missing a cycle deadline. The Pareto machinery
 * minimizes internally; maximizing objectives are negated at
 * extraction so callers never branch on direction.
 */

#ifndef WLCACHE_EXPLORE_OBJECTIVES_HH
#define WLCACHE_EXPLORE_OBJECTIVES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "explore/sweep_spec.hh"
#include "nvp/experiment.hh"
#include "nvp/system.hh"

namespace wlcache {
namespace explore {

/** One node's finished run within a fleet design point. */
struct NodeResult
{
    std::uint64_t node = 0;       //!< Fleet node id (trace seed).
    std::string workload;         //!< Mix-assigned workload.
    std::string run_key;          //!< Content-addressed run key.
    nvp::RunResult result;
};

/** One named figure of merit: per-run (eval) or fleet (reduce). */
struct ObjectiveDef
{
    const char *name;
    const char *help;
    /**
     * Extract the raw value of one run. @p spec identifies the
     * workload (for progress extrapolation of runs that did not
     * finish); @p cfg is the resolved configuration the run executed
     * with. Null for fleet objectives.
     */
    double (*eval)(const nvp::RunResult &r,
                   const nvp::SystemConfig &cfg,
                   const nvp::ExperimentSpec &spec) = nullptr;
    /**
     * Reduce one point's node results, sorted by node id. Null for
     * per-run objectives.
     */
    double (*reduce)(const std::vector<NodeResult> &nodes,
                     const FleetBlock &fleet) = nullptr;
};

/** Every registered objective: per-run ones first, then fleet ones. */
const std::vector<ObjectiveDef> &allObjectives();

/** Lookup by name; null when unknown. */
const ObjectiveDef *findObjective(const std::string &name);

/**
 * Comma-separated list of every registered objective name, for
 * "unknown objective" error messages.
 */
std::string objectiveNameList();

/**
 * True when @p name is registered and of the kind a sweep evaluates:
 * a fleet objective when @p fleet (the sweep has a fleet block), a
 * per-run objective otherwise. False fills @p err with the reason.
 */
bool checkObjective(const std::string &name, bool fleet,
                    std::string *err);

/**
 * Evaluate @p names for one run, in order. Every registered
 * objective minimizes, so smaller is better across the board.
 * Asserts each name is registered (validate with findObjective
 * first at the API boundary).
 */
std::vector<double> evalObjectives(
    const std::vector<std::string> &names, const nvp::RunResult &r,
    const nvp::SystemConfig &cfg, const nvp::ExperimentSpec &spec);

/**
 * Exact nearest-rank percentile: the smallest value v in @p values
 * such that at least @p pct percent of them are <= v, i.e. the
 * (1-based) rank ceil(pct/100 * N) of the ascending order. Takes the
 * vector by value and sorts internally, so callers never pre-sort.
 * Guards: N=0 returns 0; N=1 returns the single value for any pct;
 * pct <= 0 returns the minimum, pct >= 100 the maximum.
 */
double percentileNearestRank(std::vector<double> values, double pct);

/**
 * A node's forward-progress rate: retired instructions per second of
 * total wall-clock (on + recharge). 0 when no time elapsed.
 */
double nodeProgressRate(const nvp::RunResult &r);

/**
 * The JIT-checkpoint energy reserve a configuration sets aside
 * between Vbackup and Vmin (joules), exactly as SystemSim sizes it:
 * WL-Cache follows the maxline-indexed threshold schedule of §5.5,
 * the NVSRAM family scales Vbackup with its array, and every other
 * design uses the static platform Vbackup. The quantity WL-Cache's
 * maxline bound trades against write-back efficiency — the paper's
 * central axis.
 */
double checkpointReserveJ(const nvp::SystemConfig &cfg);

/**
 * First-order silicon cost of a configuration (mm^2 at 90 nm from
 * CACTI-lite): D- and I-cache arrays plus, for WL-Cache, the
 * DirtyQueue.
 */
double hardwareAreaMm2(const nvp::SystemConfig &cfg);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_OBJECTIVES_HH
