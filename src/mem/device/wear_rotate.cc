#include "mem/device/wear_rotate.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

WearRotator::WearRotator(std::uint64_t total_lines,
                         unsigned line_bytes,
                         std::uint64_t period_writes)
    : total_lines_(total_lines), line_bytes_(line_bytes),
      period_writes_(period_writes)
{
    wlc_assert(total_lines_ > 0);
    wlc_assert(line_bytes_ > 0);
    wlc_assert(period_writes_ > 0);
}

void
WearRotator::onWrite()
{
    if (++writes_since_rotate_ >= period_writes_) {
        writes_since_rotate_ = 0;
        ++rotations_;
        if (++offset_ >= total_lines_)
            offset_ = 0;
    }
}

void
WearRotator::reset()
{
    offset_ = 0;
    writes_since_rotate_ = 0;
    rotations_ = 0;
}

void
WearRotator::ioState(StateIo &io)
{
    io.u64(offset_);
    io.u64(writes_since_rotate_);
    io.u64(rotations_);
    wlc_assert(offset_ < total_lines_);
}

} // namespace mem
} // namespace wlcache
