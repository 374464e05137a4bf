#include "cpu/icache_stream.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace cpu {

ICacheStream::ICacheStream(const ICacheStreamParams &params)
    : params_(params), rng_(params.seed ^ 0x1c0defeedull)
{
    wlc_assert(params_.body_min_insns >= 1);
    wlc_assert(params_.body_max_insns >= params_.body_min_insns);
    wlc_assert(params_.code_bytes >= 4 * params_.body_max_insns);
    newRegion();
}

void
ICacheStream::newRegion()
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

FetchRun
ICacheStream::take(unsigned max_insns, unsigned max_iters)
{
    wlc_assert(max_insns >= 1 && max_iters >= 1);
    if (pos_ == 0 && body_len_ <= max_insns) {
        // Whole iterations: the loop state only moves (and the RNG
        // only draws) when the last iteration retires, so k at once
        // is k single-body takes.
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

void
ICacheStream::ioState(StateIo &io)
{
    io.section("STRM");
    rng_.ioState(io);
    io.u64(body_start_);
    io.u32(body_len_);
    io.u32(pos_);
    io.u32(iters_left_);
}

} // namespace cpu
} // namespace wlcache
