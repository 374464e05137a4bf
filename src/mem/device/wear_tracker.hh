/**
 * @file
 * Per-line write-endurance tracking. The main array is divided into
 * fixed-size wear lines; every main-array write bumps a counter for
 * each line it covers. Counters live in lazily-allocated shards so an
 * 8 MiB array with a small working set costs a few KiB, and serialize
 * bit-exactly (allocated shards only, sorted by index) through the
 * snapshot layer. The explorer's `nvm_lifetime` objective is the
 * headroom of the most-worn line: endurance budget minus max wear.
 */

#ifndef WLCACHE_MEM_DEVICE_WEAR_TRACKER_HH
#define WLCACHE_MEM_DEVICE_WEAR_TRACKER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

/** Sharded per-line write counters with an endurance budget. */
class WearTracker
{
  public:
    /** Wear lines per lazily-allocated counter shard. */
    static constexpr std::size_t kLinesPerShard = 4096;

    /**
     * @param total_lines Wear lines in the array.
     * @param endurance_writes Per-line write-cycle budget.
     */
    WearTracker(std::uint64_t total_lines,
                std::uint64_t endurance_writes);

    /** Count one write to wear line @p line (saturating). */
    void recordLine(std::uint64_t line);

    /** Writes recorded against @p line so far. */
    std::uint64_t lineWear(std::uint64_t line) const;

    /** Highest per-line write count seen. */
    std::uint64_t maxWear() const { return max_wear_; }

    /** Distinct lines written at least once. */
    std::uint64_t linesTouched() const { return lines_touched_; }

    /** Total line-writes recorded. */
    std::uint64_t totalLineWrites() const { return total_writes_; }

    /**
     * Remaining write budget of the most-worn line (saturating at
     * zero). An untouched array has full headroom.
     */
    std::uint64_t
    minHeadroom() const
    {
        return endurance_writes_ > max_wear_
                   ? endurance_writes_ - max_wear_
                   : 0;
    }

    /** Forget all wear (construction state). */
    void reset();

    /** Serialize allocated shards, sorted by shard index. */
    void ioState(StateIo &io);

  private:
    std::uint64_t total_lines_;
    std::uint64_t endurance_writes_;
    /** One counter array per shard; empty vector == untouched. */
    std::vector<std::vector<std::uint32_t>> shards_;
    std::uint64_t max_wear_ = 0;
    std::uint64_t lines_touched_ = 0;
    std::uint64_t total_writes_ = 0;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_DEVICE_WEAR_TRACKER_HH
