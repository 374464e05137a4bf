/**
 * @file
 * Thin experiment harness shared by the benchmark binaries and the
 * examples: run (design x workload x power environment) and report a
 * RunResult. Centralizes the trace seeds and configuration tweaks so
 * every figure reproduces from the same defaults.
 */

#ifndef WLCACHE_NVP_EXPERIMENT_HH
#define WLCACHE_NVP_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "nvp/system.hh"

namespace wlcache {
namespace nvp {

/** One experiment: a design running a workload in an environment. */
struct ExperimentSpec
{
    DesignKind design = DesignKind::WL;
    std::string workload = "sha";

    /** Ambient environment (ignored when no_failure is set). */
    energy::TraceKind power = energy::TraceKind::RfHome;
    /** Infinite-power mode (Figure 4). */
    bool no_failure = false;

    unsigned scale = 1;
    std::uint64_t workload_seed = 42;
    std::uint64_t power_seed = 7;

    /** Optional configuration override hook. */
    std::function<void(SystemConfig &)> tweak;
};

/**
 * Parse a short power-environment name as the tools and sweep specs
 * spell it: trace1|trace2|trace3|solar|thermal, or none|infinite for
 * infinite power (sets @p no_failure). Case-insensitive.
 * @return true and set @p kind / @p no_failure on a match.
 */
bool powerFromShortName(const std::string &name, energy::TraceKind &kind,
                        bool &no_failure);

/** Every primary power-environment short name, in listing order. */
std::vector<std::string> powerShortNames();

/**
 * The SystemConfig a spec actually runs with: the design preset with
 * the tweak hook applied. Shared by runExperiment() and the runner's
 * content-addressed cache key so they can never disagree.
 */
SystemConfig resolveConfig(const ExperimentSpec &spec);

/**
 * Run one experiment to completion, under the snapshot/resume/cut
 * controls in @p opts (see RunOptions).
 */
RunResult runExperiment(const ExperimentSpec &spec,
                        const RunOptions &opts = {});

/** Execution-time speedup of @p x relative to @p baseline (>1 means
 *  @p x is faster). */
double speedupVs(const RunResult &x, const RunResult &baseline);

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_EXPERIMENT_HH
