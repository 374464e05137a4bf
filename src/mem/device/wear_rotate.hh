/**
 * @file
 * Start-gap-style address-rotation wear leveling. The rotator remaps
 * a logical wear line to a physical one by a rotating offset that
 * advances every rotate_period main-array writes, spreading a hot
 * line's writes across the whole array over time.
 *
 * The remap applies to the access's *timing and wear identity* only —
 * which bank, row, and wear counter an access lands on. Functional
 * contents stay at the logical address: a real controller migrates
 * the line's data when the gap passes it, which is invisible to the
 * program, so the simulator keeps a single functional image and
 * charges the remap to the identity layer alone.
 */

#ifndef WLCACHE_MEM_DEVICE_WEAR_ROTATE_HH
#define WLCACHE_MEM_DEVICE_WEAR_ROTATE_HH

#include <cstdint>

#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

/** Rotating logical-to-physical wear-line remap. */
class WearRotator
{
  public:
    /**
     * @param total_lines Wear lines in the array.
     * @param line_bytes Bytes per wear line.
     * @param period_writes Main-array writes between rotation steps.
     */
    WearRotator(std::uint64_t total_lines, unsigned line_bytes,
                std::uint64_t period_writes);

    /** Physical address for logical @p addr (offset within line kept). */
    Addr
    map(Addr addr) const
    {
        const std::uint64_t line = addr / line_bytes_;
        const std::uint64_t off = addr % line_bytes_;
        return mapLine(line) * line_bytes_ + off;
    }

    /** Physical wear line for logical line @p line. */
    std::uint64_t
    mapLine(std::uint64_t line) const
    {
        std::uint64_t p = line + offset_;
        if (p >= total_lines_)
            p -= total_lines_;
        return p;
    }

    /** Count one main-array write; advances the offset on period. */
    void onWrite();

    std::uint64_t offset() const { return offset_; }
    std::uint64_t rotations() const { return rotations_; }

    /** Forget all rotation state between runs. */
    void reset();

    void ioState(StateIo &io);

  private:
    std::uint64_t total_lines_;
    unsigned line_bytes_;
    std::uint64_t period_writes_;
    std::uint64_t offset_ = 0;
    std::uint64_t writes_since_rotate_ = 0;
    std::uint64_t rotations_ = 0;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_DEVICE_WEAR_ROTATE_HH
