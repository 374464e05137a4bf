/**
 * @file
 * The DirtyQueue (paper §3, §5): a small hardware structure that
 * tracks the addresses of dirty cache lines. Entries move through a
 * Pending -> InFlight lifecycle: Pending while the line is dirty (or
 * stale, see §5.4), InFlight while an asynchronous write-back is
 * outstanding; the entry is removed only after the write-back ACK
 * (§5.3 step 4), which is what makes the cleaning protocol
 * failure-atomic. Duplicate addresses are permitted (§5.3): a store
 * that re-dirties a line whose clean-back is still in flight inserts
 * a second entry rather than searching for the old one.
 */

#ifndef WLCACHE_CORE_DIRTY_QUEUE_HH
#define WLCACHE_CORE_DIRTY_QUEUE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_params.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace core {

/** Lifecycle state of a DirtyQueue entry. */
enum class DqEntryState : std::uint8_t
{
    Free,
    Pending,   //!< Tracking a (possibly stale) dirty line.
    InFlight,  //!< Asynchronous write-back outstanding.
};

/** One DirtyQueue slot. */
struct DqEntry
{
    DqEntryState state = DqEntryState::Free;
    Addr line_addr = 0;
    std::uint64_t insert_seq = 0;  //!< FIFO order.
    std::uint64_t touch_seq = 0;   //!< LRU order (last store).
    Cycle wb_ready = 0;            //!< ACK cycle while InFlight.
};

/**
 * Fixed-capacity queue of dirty-line addresses with FIFO or LRU
 * victim selection among Pending entries.
 */
class DirtyQueue
{
  public:
    /**
     * @param capacity Number of hardware slots (paper default 8).
     * @param repl Replacement policy among pending entries.
     */
    DirtyQueue(unsigned capacity, cache::ReplPolicy repl);

    unsigned capacity() const { return capacity_; }
    cache::ReplPolicy policy() const { return repl_; }

    /** Occupied slots (Pending + InFlight). */
    unsigned size() const { return occupied_; }

    /** Pending entries only. */
    unsigned pendingCount() const;

    bool full() const { return occupied_ == capacity_; }
    bool empty() const { return occupied_ == 0; }

    /**
     * Insert a newly dirty line address.
     * @return slot index, or nullopt when the queue is full.
     */
    std::optional<unsigned> insert(Addr line_addr);

    /**
     * Refresh the LRU recency of the *youngest* pending entry for
     * @p line_addr (a store hit on an already-dirty line). No-op if
     * no pending entry matches.
     */
    void touch(Addr line_addr);

    /**
     * Select the replacement victim among Pending entries: FIFO picks
     * the oldest insertion, LRU the least recently stored-to.
     * @return slot index, or nullopt if nothing is pending.
     */
    std::optional<unsigned> selectVictim() const;

    /** Transition a Pending entry to InFlight with its ACK cycle. */
    void markInFlight(unsigned slot, Cycle wb_ready);

    /** Release a slot (ACK arrived, or a stale entry was dropped). */
    void remove(unsigned slot);

    /** Earliest ACK cycle among InFlight entries, if any. */
    std::optional<Cycle> earliestInFlightReady() const;

    /** Release every InFlight slot whose ACK cycle is <= @p now. */
    void completeInFlight(Cycle now)
    {
        // Nothing can be acknowledged before next_ack_.
        if (now >= next_ack_)
            retireAcked(now);
    }

    /** Access a slot (checkpoint walks, tests). */
    const DqEntry &entry(unsigned slot) const;

    /** Drop all entries (power loss / post-checkpoint). */
    void clear();

    /** Serialize every slot plus the sequence/occupancy counters. */
    void ioState(StateIo &io);

  private:
    /** completeInFlight()'s scan; recomputes next_ack_ exactly. */
    void retireAcked(Cycle now);

    static constexpr Cycle kNoAck = ~Cycle{ 0 };

    unsigned capacity_;
    cache::ReplPolicy repl_;
    std::vector<DqEntry> slots_;
    std::uint64_t seq_ = 0;
    unsigned occupied_ = 0;

    /**
     * Never above the earliest InFlight wb_ready (kNoAck when none is
     * in flight), a hint that lets completeInFlight() skip its scan.
     * markInFlight() lowers it and the scan sets it exactly; remove()
     * may leave it low, which only costs a scan. Not serialized: a
     * load sets it to 0, so the next completeInFlight() scans.
     */
    Cycle next_ack_ = kNoAck;
};

} // namespace core
} // namespace wlcache

#endif // WLCACHE_CORE_DIRTY_QUEUE_HH
