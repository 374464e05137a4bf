#include "workloads/guest_env.hh"

#include <algorithm>

#include "util/stat_math.hh"

namespace wlcache {
namespace workloads {

GuestEnv::GuestEnv(std::uint64_t seed, Addr data_base,
                   std::size_t heap_bytes)
    : data_base_(data_base), heap_limit_(heap_bytes), rng_(seed)
{
    wlc_assert(data_base % 64 == 0, "data base must be line aligned");
    wlc_assert(data_base + heap_bytes <= (Addr{ 1 } << 32),
               "guest data segment must fit 32-bit trace addresses");
}

Addr
GuestEnv::alloc(std::size_t bytes, std::size_t align)
{
    wlc_assert(util::isPowerOfTwo(align) && align <= 64);
    const auto off = static_cast<std::size_t>(util::alignUp(
        backing_.size(), static_cast<std::uint64_t>(align)));
    wlc_assert(off + bytes <= heap_limit_, "guest heap exhausted");
    backing_.resize(off + bytes);
    initial_.resize(off + bytes);
    return data_base_ + off;
}

void
GuestEnv::badAccess(Addr addr, unsigned bytes) const
{
    wlc_assert(addr >= data_base_, "guest access below data segment");
    const std::size_t off = static_cast<std::size_t>(addr - data_base_);
    wlc_assert(off + bytes <= backing_.size(),
               "guest access beyond heap");
    wlc_assert(addr % bytes == 0,
               "unaligned guest access: addr=0x%llx size=%u",
               static_cast<unsigned long long>(addr), bytes);
    panic("guest access at 0x%llx passed every check",
          static_cast<unsigned long long>(addr));
}

void
GuestEnv::gapTooLong(Addr addr) const
{
    fatal("%llu instructions before the access at 0x%llx exceed the "
          "compute gap one trace event holds (%u)",
          static_cast<unsigned long long>(gap_),
          static_cast<unsigned long long>(addr), kMaxComputeGap);
}

void
GuestEnv::markInit(Addr addr, unsigned bytes)
{
    const std::size_t off = static_cast<std::size_t>(addr - data_base_);
    std::memcpy(initial_.data() + off, backing_.data() + off, bytes);
}

void
GuestEnv::finish()
{
    if (gap_ > 0) {
        // Flush the trailing compute gap with a scratch load so no
        // instructions are lost from the timing model. Heap bytes
        // never allocated read as zero, as in NVM.
        std::uint32_t v = 0;
        if (!backing_.empty())
            std::memcpy(&v, backing_.data(),
                        std::min<std::size_t>(sizeof v, backing_.size()));
        record(MemOp::Load, data_base_, 4, v);
    }
    trace_.shrink_to_fit();
    initial_.shrink_to_fit();
    backing_.shrink_to_fit();
}

} // namespace workloads
} // namespace wlcache
