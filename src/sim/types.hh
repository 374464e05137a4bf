/**
 * @file
 * Fundamental simulator types and units.
 *
 * The simulated core runs at 1 GHz (paper Table 2), so one cycle is
 * one nanosecond. All latencies in the models are expressed in cycles;
 * wall-clock durations (power traces, charging intervals) are expressed
 * in seconds as doubles.
 */

#ifndef WLCACHE_SIM_TYPES_HH
#define WLCACHE_SIM_TYPES_HH

#include <cstdint>

namespace wlcache {

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Simulated clock cycle count (1 cycle == 1 ns at 1 GHz). */
using Cycle = std::uint64_t;

/** Core clock frequency, Hz (paper Table 2: 1.0 GHz). */
constexpr double kCoreFreqHz = 1.0e9;

/** Seconds per simulated cycle. */
constexpr double kSecondsPerCycle = 1.0 / kCoreFreqHz;

/** Convert cycles to seconds. */
constexpr double
cyclesToSeconds(Cycle c)
{
    return static_cast<double>(c) * kSecondsPerCycle;
}

/** Convert a duration in seconds to whole cycles (rounded down). */
constexpr Cycle
secondsToCycles(double s)
{
    return static_cast<Cycle>(s * kCoreFreqHz);
}

/**
 * How the simulator integrates energy over a multi-cycle span.
 *
 * Percycle is the reference implementation: leakage and harvest are
 * applied one cycle at a time. SkipAhead integrates a whole span in
 * one closed-form step. Both operate on integer attojoules, so they
 * are bit-identical by construction; the differential harness in
 * tests/skip_ahead_equivalence_test.cc enforces it forever.
 */
enum class StepMode : std::uint8_t
{
    Percycle,
    SkipAhead,
};

/** Kind of a data-memory operation issued by the core. */
enum class MemOp : std::uint8_t
{
    Load,
    Store,
};

/** Access width in bytes for a memory operation (1, 2, 4, or 8). */
using AccessSize = std::uint8_t;

/** Largest compute gap one trace event can carry. */
constexpr std::uint32_t kMaxComputeGap = 0xffff;

/**
 * One data-memory reference in a workload trace, 16 bytes with no
 * padding: the paper sweep keeps millions of them resident.
 *
 * @c computeGap is the number of non-memory instructions the core
 * executes *before* this reference; it models the compute/memory mix
 * without recording every ALU instruction. Guest addresses fit 32
 * bits (the workloads' data segment sits at 1 MiB).
 */
struct MemAccess
{
    std::uint16_t computeGap;  //!< At most kMaxComputeGap.
    MemOp op;
    AccessSize size;
    std::uint32_t addr;
    std::uint64_t value;  //!< Store data (or loaded data for checking).
};
static_assert(sizeof(MemAccess) == 16);

} // namespace wlcache

#endif // WLCACHE_SIM_TYPES_HH
