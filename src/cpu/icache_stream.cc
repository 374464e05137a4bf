#include "cpu/icache_stream.hh"

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
