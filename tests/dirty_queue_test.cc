/** @file Unit tests for the DirtyQueue structure (paper §3, §5). */

#include <gtest/gtest.h>

#include <vector>

#include "core/dirty_queue.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::core;
using wlcache::cache::ReplPolicy;

TEST(DirtyQueue, StartsEmpty)
{
    DirtyQueue dq(8, ReplPolicy::FIFO);
    EXPECT_TRUE(dq.empty());
    EXPECT_FALSE(dq.full());
    EXPECT_EQ(dq.size(), 0u);
    EXPECT_EQ(dq.pendingCount(), 0u);
    EXPECT_FALSE(dq.selectVictim().has_value());
    EXPECT_FALSE(dq.earliestInFlightReady().has_value());
}

TEST(DirtyQueue, InsertFillsSlots)
{
    DirtyQueue dq(2, ReplPolicy::FIFO);
    ASSERT_TRUE(dq.insert(0x100).has_value());
    ASSERT_TRUE(dq.insert(0x200).has_value());
    EXPECT_TRUE(dq.full());
    EXPECT_FALSE(dq.insert(0x300).has_value());
}

TEST(DirtyQueue, FifoVictimIsOldestInsert)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    dq.insert(0xa00);
    dq.insert(0xb00);
    dq.insert(0xc00);
    const auto v = dq.selectVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(dq.entry(*v).line_addr, 0xa00u);
}

TEST(DirtyQueue, LruVictimFollowsTouches)
{
    DirtyQueue dq(4, ReplPolicy::LRU);
    dq.insert(0xa00);
    dq.insert(0xb00);
    dq.touch(0xa00);  // 0xa00 now most recently stored
    const auto v = dq.selectVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(dq.entry(*v).line_addr, 0xb00u);
}

TEST(DirtyQueue, TouchUnknownAddressIsNoop)
{
    DirtyQueue dq(4, ReplPolicy::LRU);
    dq.insert(0xa00);
    dq.touch(0xdead);  // nothing matches
    const auto v = dq.selectVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(dq.entry(*v).line_addr, 0xa00u);
}

TEST(DirtyQueue, DuplicateAddressesAllowed)
{
    // §5.3: a re-dirtied line inserts a second entry.
    DirtyQueue dq(4, ReplPolicy::FIFO);
    dq.insert(0xa00);
    dq.insert(0xa00);
    EXPECT_EQ(dq.size(), 2u);
}

TEST(DirtyQueue, TouchRefreshesYoungestDuplicate)
{
    DirtyQueue dq(4, ReplPolicy::LRU);
    dq.insert(0xa00);  // slot 0, older
    dq.insert(0xb00);
    dq.insert(0xa00);  // duplicate, younger
    dq.touch(0xa00);
    // touch() refreshes only the *youngest* duplicate; the stale
    // older 0xa00 entry keeps its original recency and is selected.
    const auto v = dq.selectVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(dq.entry(*v).line_addr, 0xa00u);
    EXPECT_EQ(*v, 0u);  // the stale duplicate, not the refreshed one
}

TEST(DirtyQueue, InFlightLifecycle)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    const auto s = dq.insert(0xa00);
    ASSERT_TRUE(s.has_value());
    dq.markInFlight(*s, 500);
    EXPECT_EQ(dq.pendingCount(), 0u);
    EXPECT_EQ(dq.size(), 1u);
    EXPECT_FALSE(dq.selectVictim().has_value());
    const auto ready = dq.earliestInFlightReady();
    ASSERT_TRUE(ready.has_value());
    EXPECT_EQ(*ready, 500u);

    dq.completeInFlight(499);
    EXPECT_EQ(dq.size(), 1u);  // not yet
    dq.completeInFlight(500);
    EXPECT_TRUE(dq.empty());
}

TEST(DirtyQueue, EarliestInFlightPicksMin)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    const auto a = dq.insert(0xa00);
    const auto b = dq.insert(0xb00);
    dq.markInFlight(*a, 900);
    dq.markInFlight(*b, 300);
    EXPECT_EQ(*dq.earliestInFlightReady(), 300u);
}

TEST(DirtyQueue, RemoveFreesSlot)
{
    DirtyQueue dq(1, ReplPolicy::FIFO);
    const auto s = dq.insert(0xa00);
    EXPECT_TRUE(dq.full());
    dq.remove(*s);
    EXPECT_TRUE(dq.empty());
    EXPECT_TRUE(dq.insert(0xb00).has_value());
}

TEST(DirtyQueue, ClearReleasesEverything)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    dq.insert(0xa00);
    const auto b = dq.insert(0xb00);
    dq.markInFlight(*b, 100);
    dq.clear();
    EXPECT_TRUE(dq.empty());
    EXPECT_FALSE(dq.earliestInFlightReady().has_value());
}

TEST(DirtyQueue, VictimSkipsInFlight)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    const auto a = dq.insert(0xa00);  // oldest
    dq.insert(0xb00);
    dq.markInFlight(*a, 100);
    const auto v = dq.selectVictim();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(dq.entry(*v).line_addr, 0xb00u);
}

TEST(DirtyQueue, PendingCountTracksStates)
{
    DirtyQueue dq(4, ReplPolicy::FIFO);
    const auto a = dq.insert(0xa00);
    dq.insert(0xb00);
    EXPECT_EQ(dq.pendingCount(), 2u);
    dq.markInFlight(*a, 10);
    EXPECT_EQ(dq.pendingCount(), 1u);
}

TEST(DirtyQueue, MarkInFlightRequiresPending)
{
    DirtyQueue dq(2, ReplPolicy::FIFO);
    const auto a = dq.insert(0xa00);
    dq.markInFlight(*a, 10);
    EXPECT_DEATH(dq.markInFlight(*a, 20), "");
}

TEST(DirtyQueue, RemoveFreeSlotPanics)
{
    DirtyQueue dq(2, ReplPolicy::FIFO);
    EXPECT_DEATH(dq.remove(0), "");
}

namespace {

std::vector<DqEntry>
slotsOf(const DirtyQueue &dq)
{
    std::vector<DqEntry> slots;
    for (unsigned i = 0; i < dq.capacity(); ++i)
        slots.push_back(dq.entry(i));
    return slots;
}

/** completeInFlight() as a full scan of every slot, no ACK bound. */
void
referenceComplete(std::vector<DqEntry> &slots, Cycle now)
{
    for (DqEntry &e : slots)
        if (e.state == DqEntryState::InFlight && e.wb_ready <= now)
            e.state = DqEntryState::Free;
}

std::vector<std::uint8_t>
bytesOf(const DirtyQueue &dq)
{
    SnapshotWriter w;
    StateIo::save(dq, w);
    return w.take();
}

/** A random slot in state @p st, or capacity() when there is none. */
unsigned
randomSlotIn(const DirtyQueue &dq, Rng &rng, DqEntryState st)
{
    std::vector<unsigned> pick;
    for (unsigned i = 0; i < dq.capacity(); ++i)
        if (dq.entry(i).state == st)
            pick.push_back(i);
    return pick.empty() ? dq.capacity()
                        : pick[rng.nextBelow(pick.size())];
}

} // namespace

TEST(DirtyQueue, AckBoundRetiresWhatAFullScanRetires)
{
    Rng rng(0xacb0d11ull);
    std::uint64_t retired = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const unsigned cap = static_cast<unsigned>(rng.nextRange(1, 8));
        const ReplPolicy repl =
            trial % 2 ? ReplPolicy::FIFO : ReplPolicy::LRU;
        DirtyQueue dq(cap, repl);
        std::vector<std::uint8_t> saved = bytesOf(dq);
        Cycle now = 0;
        for (int op = 0; op < 400; ++op) {
            switch (rng.nextBelow(8)) {
              case 0:
              case 1:
                dq.insert(0x40 * rng.nextBelow(16));
                break;
              case 2:
              case 3: {
                const unsigned s =
                    randomSlotIn(dq, rng, DqEntryState::Pending);
                if (s < cap)
                    dq.markInFlight(s, now + rng.nextRange(0, 300));
                break;
              }
              case 4: {
                const unsigned s = randomSlotIn(
                    dq, rng, rng.nextBool() ? DqEntryState::Pending
                                            : DqEntryState::InFlight);
                if (s < cap)
                    dq.remove(s);
                break;
              }
              case 5:
                if (rng.nextBool(0.1))
                    dq.clear();
                break;
              case 6:
                // Save now, or load an earlier image into this queue
                // or a fresh one: loaded ACKs may precede the bound.
                if (rng.nextBool()) {
                    saved = bytesOf(dq);
                } else {
                    SnapshotReader r(saved);
                    if (rng.nextBool()) {
                        StateIo::load(dq, r);
                    } else {
                        DirtyQueue fresh(cap, repl);
                        StateIo::load(fresh, r);
                        dq = fresh;
                    }
                }
                break;
              default:
                break;
            }
            // Time mostly advances, sometimes jumps back (a restore).
            if (rng.nextBool(0.05))
                now -= rng.nextBelow(now + 1);
            else
                now += rng.nextBelow(120);
            std::vector<DqEntry> expected = slotsOf(dq);
            referenceComplete(expected, now);
            const unsigned before = dq.size();
            dq.completeInFlight(now);
            retired += before - dq.size();
            unsigned occupied = 0;
            for (unsigned i = 0; i < cap; ++i) {
                ASSERT_EQ(dq.entry(i).state, expected[i].state)
                    << "trial " << trial << " op " << op << " slot " << i;
                occupied += expected[i].state != DqEntryState::Free;
            }
            ASSERT_EQ(dq.size(), occupied)
                << "trial " << trial << " op " << op;
        }
    }
    EXPECT_GT(retired, 5000u);
}
