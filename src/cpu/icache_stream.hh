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

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
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
    FetchRun take(unsigned max_insns, unsigned max_iters = 1)
    {
        wlc_assert(max_insns >= 1 && max_iters >= 1);
        if (pos_ == 0 && body_len_ <= max_insns) {
            // Whole iterations: the loop state only moves (and the RNG
            // only draws) when the last iteration retires, so k at
            // once is k single-body takes.
            unsigned k = std::min(iters_left_, max_iters);
            if (k > 1)
                k = std::min(k, max_insns / body_len_);
            const FetchRun run{ body_start_, body_len_, k };
            iters_left_ -= k;
            if (iters_left_ == 0)
                newRegion();
            return run;
        }
        const unsigned n = std::min(max_insns, body_len_ - pos_);
        const FetchRun run{ body_start_ + 4 * static_cast<Addr>(pos_), n };
        pos_ += n;
        if (pos_ >= body_len_) {
            pos_ = 0;
            if (--iters_left_ == 0)
                newRegion();
        }
        return run;
    }

    const ICacheStreamParams &params() const { return params_; }

    /** Serialize the PC-walk cursor and its RNG. */
    void ioState(StateIo &io);

  private:
    void newRegion()
    {
        const Addr code_end = params_.code_base + params_.code_bytes;
        Addr start;
        if (rng_.nextBool(params_.call_probability) || body_start_ == 0) {
            // Far jump: a call into another function in the footprint.
            const std::uint64_t slots =
                (params_.code_bytes / 4) - params_.body_max_insns;
            start = params_.code_base + 4 * rng_.nextBelow(slots);
        } else {
            // Fall through past the loop we just finished.
            start = body_start_ + 4 * static_cast<Addr>(body_len_);
            if (start + 4 * params_.body_max_insns >= code_end)
                start = params_.code_base;
        }
        body_start_ = start;
        body_len_ = static_cast<unsigned>(rng_.nextRange(
            params_.body_min_insns, params_.body_max_insns));
        const double iters = rng_.nextExponential(params_.mean_iterations);
        iters_left_ = std::max(1u, static_cast<unsigned>(iters));
        pos_ = 0;
    }

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
