/**
 * @file
 * Workload registry and trace builder. The registry enumerates the
 * paper's 23 applications with their suite and an estimated code
 * footprint (drives the synthetic L1I stream). getTrace() runs a
 * kernel once, caches the recorded events plus the initial/final
 * memory images, and hands them to the NVP system simulator.
 */

#ifndef WLCACHE_WORKLOADS_WORKLOADS_HH
#define WLCACHE_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "workloads/guest_env.hh"

namespace wlcache {
namespace workloads {

/** Registry entry for one benchmark application. */
struct WorkloadInfo
{
    const char *name;    //!< Paper's label, e.g. "adpcmdecode".
    const char *suite;   //!< "Media" or "MiBench".
    unsigned code_kb;    //!< Code footprint for the L1I stream model.
    void (*run)(GuestEnv &, unsigned scale);
};

/** All 23 applications in the paper's presentation order. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Find a workload by name; null if unknown. */
const WorkloadInfo *findWorkload(const std::string &name);

/** A recorded, replayable workload execution. */
struct BuiltTrace
{
    std::string name;
    const WorkloadInfo *info = nullptr;
    std::uint64_t seed = 0;
    unsigned scale = 1;

    std::vector<MemAccess> events;
    Addr image_base = 0;                     //!< Data segment base.
    std::vector<std::uint8_t> initial_image; //!< NVM at program load.
    std::vector<std::uint8_t> final_image;   //!< Expected at the end.

    /** Total instructions (compute gaps + memory ops). */
    std::uint64_t totalInstructions() const;

    /** Fraction of trace events that are stores. */
    double storeFraction() const;
};

/**
 * Build (or fetch from the process-wide cache) the trace for
 * @p name at the given @p scale and @p seed. Thread-safe: each key
 * is built once, and builds of different keys run concurrently.
 */
const BuiltTrace &getTrace(const std::string &name, unsigned scale = 1,
                           std::uint64_t seed = 42);

/**
 * Drop all cached traces (tests that care about memory). Not safe
 * while another thread is inside getTrace() or holds a trace.
 */
void clearTraceCache();

} // namespace workloads
} // namespace wlcache

#endif // WLCACHE_WORKLOADS_WORKLOADS_HH
