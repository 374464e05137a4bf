/**
 * @file
 * Objective registry for design-space exploration: named scalar
 * figures of merit, each with an optimization direction, extracted
 * from one finished run (and its resolved configuration). The Pareto
 * machinery minimizes internally; maximizing objectives are negated
 * at extraction so callers never branch on direction.
 */

#ifndef WLCACHE_EXPLORE_OBJECTIVES_HH
#define WLCACHE_EXPLORE_OBJECTIVES_HH

#include <string>
#include <vector>

#include "nvp/experiment.hh"
#include "nvp/system.hh"

namespace wlcache {
namespace explore {

/** One named figure of merit. */
struct ObjectiveDef
{
    const char *name;
    const char *help;
    /**
     * Extract the raw value of one run. @p spec identifies the
     * workload (for progress extrapolation of runs that did not
     * finish); @p cfg is the resolved configuration the run executed
     * with.
     */
    double (*eval)(const nvp::RunResult &r,
                   const nvp::SystemConfig &cfg,
                   const nvp::ExperimentSpec &spec);
};

/** Every registered objective. */
const std::vector<ObjectiveDef> &allObjectives();

/** Lookup by name; null when unknown. */
const ObjectiveDef *findObjective(const std::string &name);

/**
 * Comma-separated list of every registered objective name, for
 * "unknown objective" error messages.
 */
std::string objectiveNameList();

/**
 * True when @p name is registered; false fills @p err with a
 * diagnostic listing the valid names.
 */
bool checkObjective(const std::string &name, std::string *err);

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
