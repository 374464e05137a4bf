/**
 * @file
 * Synthetic instruction-address stream. Workload traces record data
 * references plus a compute gap; this generator produces the program
 * counter walk for those gaps using a parametric loop-nest model
 * (sequential bodies, repeated iterations, occasional far calls), so
 * the L1 I-cache sees realistic spatial/temporal locality per
 * application (see DESIGN.md §2 for why this substitution is sound).
 *
 * The stream is deterministic and copyable: a copy is exactly the
 * checkpointed PC state, which is how ReplayCache's region rollback
 * rewinds instruction fetch.
 */

#ifndef WLCACHE_CPU_ICACHE_STREAM_HH
#define WLCACHE_CPU_ICACHE_STREAM_HH

#include <cstdint>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace cpu {

/** Loop-model parameters, seeded per application. */
struct ICacheStreamParams
{
    Addr code_base = 0x0040'0000;      //!< Start of the text segment.
    unsigned code_bytes = 12u << 10;   //!< Code footprint.
    unsigned body_min_insns = 4;       //!< Shortest loop body.
    unsigned body_max_insns = 64;      //!< Longest loop body.
    double mean_iterations = 24.0;     //!< Mean loop trip count.
    double call_probability = 0.12;    //!< Far-jump chance per region.
    std::uint64_t seed = 1;
};

/**
 * A contiguous run of sequential instruction fetches, repeated
 * @c iters times back to back (a loop body run whole @c iters times).
 */
struct FetchRun
{
    Addr pc;
    unsigned count;
    unsigned iters = 1;
};

/** Deterministic synthetic PC walk. */
class ICacheStream
{
  public:
    explicit ICacheStream(const ICacheStreamParams &params);

    /**
     * Produce the next run of at most @p max_insns fetches. Always
     * returns at least one instruction. With @p max_iters > 1 and the
     * cursor at the top of a loop body, the run may cover several
     * whole iterations of that body (iters * count <= max_insns);
     * otherwise iters is 1 and the run never crosses the end of the
     * body. The RNG advances exactly as the equivalent sequence of
     * single-iteration takes would advance it.
     */
    FetchRun take(unsigned max_insns, unsigned max_iters = 1);

    const ICacheStreamParams &params() const { return params_; }

    /** Serialize the PC-walk cursor and its RNG. */
    void ioState(StateIo &io);

  private:
    void newRegion();

    ICacheStreamParams params_;
    Rng rng_;
    Addr body_start_ = 0;
    unsigned body_len_ = 0;    //!< Instructions in the current body.
    unsigned pos_ = 0;         //!< Instruction index within the body.
    unsigned iters_left_ = 0;
};

} // namespace cpu
} // namespace wlcache

#endif // WLCACHE_CPU_ICACHE_STREAM_HH
