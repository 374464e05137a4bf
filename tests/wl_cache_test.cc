/**
 * @file
 * Unit tests for WL-Cache: the maxline bound, waterline cleaning,
 * the §5.3 clean-before-write-back race, §5.4 stale entries, JIT
 * checkpointing, and dynamic adaptation.
 */

#include <gtest/gtest.h>

#include "core/wl_cache.hh"
#include "mem/nvm_memory.hh"

using namespace wlcache;
using namespace wlcache::core;
using cache::CacheParams;
using cache::ReplPolicy;

namespace {

struct WlFixture : public ::testing::Test
{
    WlFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 1u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
    }

    /** Build a WL cache; small geometry for targeted scenarios. */
    void
    build(unsigned maxline = 3, unsigned dq_size = 5,
          ReplPolicy dq_repl = ReplPolicy::FIFO,
          bool eager_cleanup = false, unsigned waterline_gap = 1)
    {
        CacheParams cp;
        cp.size_bytes = 1024;  // 16 lines, 8 sets x 2 ways
        cp.assoc = 2;
        cp.line_bytes = 64;
        WlParams wp;
        wp.dq_size = dq_size;
        wp.maxline = maxline;
        wp.dq_repl = dq_repl;
        wp.eager_evict_cleanup = eager_cleanup;
        wp.waterline_gap = waterline_gap;
        wl = std::make_unique<WLCache>(cp, wp, *nvm, &meter);
    }

    /** Store a 4-byte value, returning the core-visible ready time. */
    Cycle
    store(Addr addr, std::uint32_t v, Cycle at)
    {
        return wl->access(MemOp::Store, addr, 4, v, nullptr, at).ready;
    }

    std::uint64_t
    load(Addr addr, Cycle at)
    {
        std::uint64_t out = 0;
        wl->access(MemOp::Load, addr, 4, 0, &out, at);
        return out;
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    std::unique_ptr<WLCache> wl;
};

} // namespace

TEST_F(WlFixture, StoreMakesLineDirtyAndTracksInQueue)
{
    build();
    store(0x0, 1, 0);
    EXPECT_EQ(wl->dirtyLineCount(), 1u);
    EXPECT_EQ(wl->dirtyQueue().size(), 1u);
}

TEST_F(WlFixture, StoreHitOnDirtyLineDoesNotReinsert)
{
    build();
    store(0x0, 1, 0);
    store(0x4, 2, 100);  // same line
    EXPECT_EQ(wl->dirtyLineCount(), 1u);
    EXPECT_EQ(wl->dirtyQueue().size(), 1u);
}

TEST_F(WlFixture, WaterlineTriggersAsynchronousCleaning)
{
    build(/*maxline=*/3);  // waterline 2
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    EXPECT_EQ(wl->wlStats().cleanings.value(), 0.0);
    // Third dirty line exceeds the waterline -> clean one (FIFO =
    // the oldest, 0x000), without evicting it.
    t = store(0x080, 3, t);
    EXPECT_EQ(wl->wlStats().cleanings.value(), 1.0);
    EXPECT_EQ(wl->dirtyLineCount(), 2u);
    // The cleaned line is still resident (a load hits).
    const auto r = wl->access(MemOp::Load, 0x000, 4, 0, nullptr, t);
    EXPECT_TRUE(r.hit);
    // And its data reached NVM.
    EXPECT_EQ(nvm->peekInt(0x000, 4), 1u);
}

TEST_F(WlFixture, CleaningIsAsynchronousForTheCore)
{
    build(3);
    Cycle t = 0;
    // Warm the lines so the stores below are hits.
    t = load(0x000, t);
    t = load(0x040, t);
    t = load(0x080, t);
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    const Cycle before = t;
    t = store(0x080, 3, t);
    // The triggering store pays only the cache write path, not the
    // NVM line write (which proceeds in the background).
    EXPECT_LT(t - before, 20u);
}

TEST_F(WlFixture, MaxlineBoundNeverExceeded)
{
    build(3);
    Cycle t = 0;
    for (unsigned i = 0; i < 12; ++i) {
        t = store(static_cast<Addr>(i) * 64, i, t);
        EXPECT_LE(wl->dirtyLineCount(), 3u);
    }
}

TEST_F(WlFixture, StallsWhenCleaningCannotKeepUp)
{
    // A single DirtyQueue slot: the first store's cleaning keeps
    // the slot InFlight, so the second store must wait for the ACK
    // before it can insert (§5.1).
    build(/*maxline=*/1, /*dq_size=*/1, ReplPolicy::FIFO,
          /*eager_cleanup=*/false, /*waterline_gap=*/0);
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    EXPECT_GT(wl->stats().stall_cycles.value(), 0.0);
    EXPECT_GT(wl->wlStats().store_stalls.value(), 0.0);
}

TEST_F(WlFixture, RaceStoreWhileWritebackInFlight)
{
    // §5.3: line cleaned (marked clean, WB launched), then stored to
    // again before the ACK -> new DirtyQueue entry (duplicate), and
    // the final value must survive a checkpoint.
    build(/*maxline=*/2, /*dq_size=*/4);
    Cycle t = 0;
    t = store(0x000, 1, t);       // X = 1
    t = store(0x040, 2, t);       // fills the waterline -> clean X
    EXPECT_EQ(wl->wlStats().cleanings.value(), 1.0);
    // Immediately re-store X while its write-back is in flight.
    t = store(0x000, 7, t);       // X = 7
    EXPECT_GE(wl->wlStats().redundant_entries.value(), 1.0);
    // Power failure now: checkpoint must persist X = 7.
    wl->checkpoint(t);
    wl->powerLoss();
    EXPECT_EQ(nvm->peekInt(0x000, 4), 7u);
}

TEST_F(WlFixture, StaleEntryAfterEvictionIsDroppedLazily)
{
    // §5.4: evicting a dirty line leaves its DQ entry stale; the
    // entry is dropped when selected, with no correctness impact.
    build(/*maxline=*/4, /*dq_size=*/6);
    Cycle t = 0;
    // Dirty a line, then force its eviction by filling the set: set
    // index repeats every 8 lines (512 B) with 2 ways.
    t = store(0x000, 1, t);
    t = load(0x200, t);
    t = load(0x400, t);  // evicts 0x000 (dirty -> written back)
    EXPECT_EQ(nvm->peekInt(0x000, 4), 1u);
    EXPECT_EQ(wl->dirtyLineCount(), 0u);
    // The DQ still holds the stale entry.
    EXPECT_EQ(wl->dirtyQueue().size(), 1u);
    // Checkpoint walks the queue, finds the line gone, drops it.
    wl->checkpoint(t);
    EXPECT_GE(wl->wlStats().stale_drops.value(), 1.0);
}

TEST_F(WlFixture, EagerEvictCleanupReleasesSlotImmediately)
{
    build(/*maxline=*/4, /*dq_size=*/6, ReplPolicy::FIFO,
          /*eager_cleanup=*/true);
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = load(0x200, t);
    t = load(0x400, t);  // evicts the dirty line
    EXPECT_EQ(wl->dirtyQueue().size(), 0u);
}

TEST_F(WlFixture, CheckpointPersistsAtMostMaxline)
{
    build(/*maxline=*/3, /*dq_size=*/5);
    Cycle t = 0;
    for (unsigned i = 0; i < 8; ++i)
        t = store(static_cast<Addr>(i) * 64, 100 + i, t);
    wl->checkpoint(t + 10000);
    EXPECT_LE(wl->stats().checkpoint_lines.value(), 3.0);
    EXPECT_TRUE(wl->dirtyQueue().empty());
    EXPECT_EQ(wl->dirtyLineCount(), 0u);
}

TEST_F(WlFixture, CheckpointThenPowerLossPersistsEverything)
{
    build(3, 5);
    Cycle t = 0;
    for (unsigned i = 0; i < 8; ++i)
        t = store(static_cast<Addr>(i) * 64, 100 + i, t);
    t = std::max<Cycle>(t, 100000);  // allow in-flight ACKs
    wl->tick(t);
    wl->checkpoint(t);
    wl->powerLoss();
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(nvm->peekInt(static_cast<Addr>(i) * 64, 4), 100u + i)
            << "line " << i;
}

TEST_F(WlFixture, PowerLossClearsVolatileState)
{
    build();
    store(0x0, 1, 0);
    wl->powerLoss();
    EXPECT_EQ(wl->dirtyLineCount(), 0u);
    EXPECT_TRUE(wl->dirtyQueue().empty());
    const auto r = wl->access(MemOp::Load, 0x0, 4, 0, nullptr, 10);
    EXPECT_FALSE(r.hit);  // cold after outage
}

TEST_F(WlFixture, DrainFlushesAllDirtyLines)
{
    build(4, 6);
    Cycle t = 0;
    for (unsigned i = 0; i < 4; ++i)
        t = store(static_cast<Addr>(i) * 64, 50 + i, t);
    wl->drainAndFlush(t);
    EXPECT_EQ(wl->dirtyLineCount(), 0u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(nvm->peekInt(static_cast<Addr>(i) * 64, 4), 50u + i);
}

TEST_F(WlFixture, LoadsNeverTouchTheQueue)
{
    build();
    Cycle t = 0;
    for (unsigned i = 0; i < 8; ++i)
        t = load(static_cast<Addr>(i) * 64, t);
    EXPECT_TRUE(wl->dirtyQueue().empty());
    EXPECT_EQ(wl->dirtyLineCount(), 0u);
}

TEST_F(WlFixture, SetMaxlineReconfigures)
{
    build(3, 5);
    wl->setMaxline(4);
    EXPECT_EQ(wl->maxline(), 4u);
    EXPECT_EQ(wl->waterline(), 3u);
    EXPECT_DEATH(wl->setMaxline(9), "");
}

TEST_F(WlFixture, CheckpointEnergyBoundScalesWithMaxline)
{
    build(3, 5);
    const double b3 = wl->checkpointEnergyBound();
    wl->setMaxline(4);
    const double b4 = wl->checkpointEnergyBound();
    EXPECT_NEAR(b4 - b3, wl->lineCheckpointEnergy(), 1e-15);
}

TEST_F(WlFixture, DynamicAdaptationRaisesMaxlineInsteadOfStalling)
{
    build(/*maxline=*/2, /*dq_size=*/6, ReplPolicy::FIFO,
          /*eager_cleanup=*/false, /*waterline_gap=*/0);
    wl->enableDynamicAdaptation([](unsigned, double) { return true; });
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    t = store(0x080, 3, t);  // would stall at maxline 2
    EXPECT_GE(wl->wlStats().dyn_maxline_raises.value(), 1.0);
    EXPECT_GT(wl->maxline(), 2u);
}

TEST_F(WlFixture, DynamicAdaptationDeniedFallsBackToStall)
{
    build(/*maxline=*/1, /*dq_size=*/1, ReplPolicy::FIFO,
          /*eager_cleanup=*/false, /*waterline_gap=*/0);
    wl->enableDynamicAdaptation([](unsigned, double) { return false; });
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    EXPECT_EQ(wl->maxline(), 1u);
    EXPECT_GT(wl->stats().stall_cycles.value(), 0.0);
}

TEST_F(WlFixture, DqLeakageIncludedInLeakage)
{
    build();
    EXPECT_GT(wl->leakageWatts(), wl->params().leakage_watts);
}

TEST_F(WlFixture, DqLruSelectsLeastRecentlyStored)
{
    build(/*maxline=*/3, /*dq_size=*/5, ReplPolicy::LRU);
    Cycle t = 0;
    t = store(0x000, 1, t);
    t = store(0x040, 2, t);
    t = store(0x004, 3, t);  // refresh line 0x000's recency
    t = store(0x080, 4, t);  // exceeds waterline -> clean LRU = 0x040
    EXPECT_EQ(nvm->peekInt(0x040, 4), 2u);
    EXPECT_EQ(nvm->peekInt(0x000, 4), 0u);  // still dirty, not cleaned
}
