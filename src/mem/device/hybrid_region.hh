/**
 * @file
 * STT-RAM hybrid fast region: a small fully-associative set of line
 * slots in front of the main array, after the STT-RAM hybrid-L1
 * placement/migration policies for intermittent systems (Badri et
 * al.). Write-hot lines are promoted into the fast region once their
 * write count reaches a threshold; resident lines are served at
 * STT-RAM latency/energy and do not wear the main array. Eviction
 * (LRU over resident slots) writes the line back to the main array —
 * one full-line write of energy and wear.
 *
 * The region is a *placement policy overlay*: functional contents
 * stay in the main array's single byte image (STT-RAM is itself
 * non-volatile, so residency survives power failure), and migrations
 * are charged as background energy, not channel time.
 */

#ifndef WLCACHE_MEM_DEVICE_HYBRID_REGION_HH
#define WLCACHE_MEM_DEVICE_HYBRID_REGION_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

/** Fully-associative hot-line fast region with LRU eviction. */
class HybridRegion
{
  public:
    /**
     * @param slots Fast-region line slots (> 0).
     * @param promote_writes Writes a line needs to earn promotion.
     */
    HybridRegion(unsigned slots, unsigned promote_writes);

    /** What one write access did to the region. */
    struct WriteOutcome
    {
        bool fast = false;      //!< Served from the fast region.
        bool promoted = false;  //!< Line entered the region now.
        bool evicted = false;   //!< A victim was written back.
        std::uint64_t evicted_line = 0;
    };

    /**
     * Record a write to wear line @p line: bump its heat, promote it
     * when hot enough (possibly evicting the LRU resident), and
     * report how the access should be served.
     */
    WriteOutcome onWrite(std::uint64_t line);

    /**
     * Record a read of wear line @p line; true when resident (serve
     * at fast-region timing). Touches LRU state.
     */
    bool onRead(std::uint64_t line);

    /** Is @p line resident (no LRU side effect)? */
    bool resident(std::uint64_t line) const;

    /** Forget residency and heat (construction state). */
    void reset();

    /** Deterministic serialization (heat map sorted by line). */
    void ioState(StateIo &io);

  private:
    static constexpr std::uint64_t kEmpty = ~0ull;

    struct Slot
    {
        std::uint64_t line = kEmpty;
        std::uint64_t last_use = 0;
    };

    Slot *findSlot(std::uint64_t line);

    unsigned promote_writes_;
    std::vector<Slot> slots_;
    /** Write-heat per non-resident line (evicted lines re-earn). */
    std::unordered_map<std::uint64_t, std::uint32_t> heat_;
    /** Deterministic LRU clock (bumped on every touch). */
    std::uint64_t tick_ = 0;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_DEVICE_HYBRID_REGION_HH
