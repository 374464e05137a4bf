/**
 * @file
 * Unit tests for the baseline cache designs: NoCache, VCache-WT,
 * NVCache-WB, NVSRAM-WB(ideal), and the ReplayCache model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cache/no_cache.hh"
#include "cache/nv_cache.hh"
#include "cache/nvsram_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/vcache_wt.hh"
#include "mem/byte_image.hh"
#include "mem/nvm_memory.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

struct DesignFixture : public ::testing::Test
{
    DesignFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 1u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
        params.size_bytes = 1024;
        params.assoc = 2;
        params.line_bytes = 64;
    }

    Cycle
    store(DataCache &c, Addr addr, std::uint32_t v, Cycle at)
    {
        return c.access(MemOp::Store, addr, 4, v, nullptr, at).ready;
    }

    std::uint64_t
    load(DataCache &c, Addr addr, Cycle at)
    {
        std::uint64_t out = 0;
        c.access(MemOp::Load, addr, 4, 0, &out, at);
        return out;
    }

    /** A 4-byte store of @p v at @p addr as an expected image. */
    static mem::ByteImage
    expectedStore(Addr addr, std::uint32_t v)
    {
        const std::uint8_t bytes[4] = {
            static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
            static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 24),
        };
        mem::ByteImage img;
        img.write(addr, bytes, 4);
        return img;
    }

    /** First byte of @p expected missing from NVM plus @p c's overlay. */
    std::optional<Addr>
    persistentMismatch(const DataCache &c, const mem::ByteImage &expected)
    {
        mem::ByteImage overlay;
        c.collectPersistentOverlay(overlay);
        return expected.firstMismatch(*nvm, overlay, {});
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    CacheParams params;
};

} // namespace

// --- NoCache ---------------------------------------------------------------

TEST_F(DesignFixture, NoCacheGoesStraightToNvm)
{
    NoCache c(*nvm, &meter);
    store(c, 0x100, 42, 0);
    EXPECT_EQ(nvm->peekInt(0x100, 4), 42u);
    EXPECT_EQ(load(c, 0x100, 1000), 42u);
    EXPECT_EQ(nvm->numReads(), 1u);
    EXPECT_DOUBLE_EQ(c.checkpointEnergyBound(), 0.0);
    EXPECT_DOUBLE_EQ(c.leakageWatts(), 0.0);
}

TEST_F(DesignFixture, NoCachePaysNvmLatency)
{
    NoCache c(*nvm, &meter);
    const auto r = c.access(MemOp::Load, 0x0, 4, 0, nullptr, 0);
    EXPECT_GE(r.ready, nvm->params().readLatency(4));
}

// --- VCache-WT ---------------------------------------------------------------

TEST_F(DesignFixture, WtStoreUpdatesNvmSynchronously)
{
    VCacheWT c(params, *nvm, &meter);
    store(c, 0x200, 7, 0);
    // NVM always up to date: that is the WT crash-consistency story.
    EXPECT_EQ(nvm->peekInt(0x200, 4), 7u);
}

TEST_F(DesignFixture, WtStoreIsNoWriteAllocate)
{
    VCacheWT c(params, *nvm, &meter);
    store(c, 0x200, 7, 0);
    EXPECT_EQ(c.stats().fills.value(), 0.0);
    // A later load misses and fills, returning the stored value.
    EXPECT_EQ(load(c, 0x200, 1000), 7u);
    EXPECT_EQ(c.stats().fills.value(), 1.0);
}

TEST_F(DesignFixture, WtStoreHitUpdatesCachedCopy)
{
    VCacheWT c(params, *nvm, &meter);
    load(c, 0x200, 0);           // fill
    store(c, 0x200, 9, 1000);    // hit
    EXPECT_EQ(c.stats().store_hits.value(), 1.0);
    EXPECT_EQ(load(c, 0x200, 2000), 9u);
    EXPECT_EQ(c.stats().load_hits.value(), 1.0);
}

TEST_F(DesignFixture, WtLinesNeverDirtyAndCheckpointIsFree)
{
    VCacheWT c(params, *nvm, &meter);
    load(c, 0x200, 0);
    store(c, 0x200, 9, 1000);
    EXPECT_EQ(c.tags().dirtyCount(), 0u);
    EXPECT_EQ(c.checkpoint(5000), 5000u);
    EXPECT_DOUBLE_EQ(c.checkpointEnergyBound(), 0.0);
}

TEST_F(DesignFixture, WtColdAfterPowerLoss)
{
    VCacheWT c(params, *nvm, &meter);
    load(c, 0x200, 0);
    c.powerLoss();
    const auto r = c.access(MemOp::Load, 0x200, 4, 0, nullptr, 10);
    EXPECT_FALSE(r.hit);
}

TEST_F(DesignFixture, WtStoreWaitsForNvmAck)
{
    VCacheWT c(params, *nvm, &meter);
    const Cycle done = store(c, 0x200, 1, 0);
    EXPECT_GE(done, nvm->params().writeAckLatency(4));
}

// --- NVCache-WB --------------------------------------------------------------

TEST_F(DesignFixture, NvCacheHoldsDirtyDataWithoutNvmWrites)
{
    NVCacheWB c(nvCacheParams(), *nvm, &meter);
    store(c, 0x300, 5, 0);
    EXPECT_EQ(nvm->peekInt(0x300, 4), 0u);  // not yet in NVM
    EXPECT_EQ(c.tags().dirtyCount(), 1u);
}

TEST_F(DesignFixture, NvCacheSurvivesPowerLoss)
{
    NVCacheWB c(nvCacheParams(), *nvm, &meter);
    store(c, 0x300, 5, 0);
    c.checkpoint(100);
    c.powerLoss();
    // The array is non-volatile: the line is still there, dirty.
    const auto r = c.access(MemOp::Load, 0x300, 4, 0, nullptr, 200);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.tags().dirtyCount(), 1u);
}

TEST_F(DesignFixture, NvCachePersistentOverlayExposesDirtyLines)
{
    NVCacheWB c(nvCacheParams(), *nvm, &meter);
    store(c, 0x300, 0xabcd, 0);
    const mem::ByteImage expected = expectedStore(0x300, 0xabcd);
    EXPECT_EQ(expected.firstMismatch(*nvm, {}, {}), Addr{ 0x300 });
    EXPECT_EQ(persistentMismatch(c, expected), std::nullopt);
}

TEST_F(DesignFixture, NvCacheDrainWritesBackDirty)
{
    NVCacheWB c(nvCacheParams(), *nvm, &meter);
    store(c, 0x300, 5, 0);
    c.drainAndFlush(1000);
    EXPECT_EQ(nvm->peekInt(0x300, 4), 5u);
    EXPECT_EQ(c.tags().dirtyCount(), 0u);
}

TEST_F(DesignFixture, NvCacheSlowerThanSram)
{
    NVCacheWB nv(nvCacheParams(), *nvm, &meter);
    VCacheWT wt(params, *nvm, &meter);
    load(nv, 0x300, 0);
    load(wt, 0x300, 0);
    const auto rn = nv.access(MemOp::Load, 0x300, 4, 0, nullptr, 1000);
    const auto rw = wt.access(MemOp::Load, 0x300, 4, 0, nullptr, 1000);
    EXPECT_GT(rn.ready, rw.ready);
}

// --- NVSRAM-WB (ideal) -------------------------------------------------------

TEST_F(DesignFixture, NvsramCheckpointBacksUpDirtyLinesOnly)
{
    NvsramCacheWB c(params, NvsramParams{}, *nvm, &meter);
    store(c, 0x000, 1, 0);
    load(c, 0x100, 100);  // clean line
    const double before =
        meter.get(energy::EnergyCategory::Checkpoint);
    c.checkpoint(1000);
    const double spent =
        meter.get(energy::EnergyCategory::Checkpoint) - before;
    // Exactly one dirty line paid for.
    EXPECT_NEAR(spent, NvsramParams{}.backup_line_energy, 1e-15);
    EXPECT_EQ(c.stats().checkpoint_lines.value(), 1.0);
}

TEST_F(DesignFixture, NvsramWarmRestoreRecoversCacheState)
{
    NvsramCacheWB c(params, NvsramParams{}, *nvm, &meter);
    store(c, 0x000, 42, 0);
    load(c, 0x100, 100);
    c.checkpoint(1000);
    c.powerLoss();
    c.powerRestore(2000);
    // Warm: both lines hit, and the dirty data is intact.
    const auto r1 = c.access(MemOp::Load, 0x000, 4, 0, nullptr, 3000);
    EXPECT_TRUE(r1.hit);
    std::uint64_t v = 0;
    c.access(MemOp::Load, 0x000, 4, 0, &v, 3100);
    EXPECT_EQ(v, 42u);
    const auto r2 = c.access(MemOp::Load, 0x100, 4, 0, nullptr, 3200);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.tags().dirtyCount(), 1u);  // dirtiness restored too
}

TEST_F(DesignFixture, NvsramWorstCaseReserveCoversAllLines)
{
    NvsramCacheWB c(params, NvsramParams{}, *nvm, &meter);
    // 1024 B / 64 B = 16 lines, all could be dirty.
    EXPECT_NEAR(c.checkpointEnergyBound(),
                16.0 * NvsramParams{}.backup_line_energy, 1e-12);
}

TEST_F(DesignFixture, NvsramOverlayHoldsCheckpointedDirtyBytes)
{
    NvsramCacheWB c(params, NvsramParams{}, *nvm, &meter);
    store(c, 0x000, 0x11223344, 0);
    c.checkpoint(1000);
    c.powerLoss();
    const mem::ByteImage expected = expectedStore(0x000, 0x11223344);
    EXPECT_EQ(expected.firstMismatch(*nvm, {}, {}), Addr{ 0x000 });
    EXPECT_EQ(persistentMismatch(c, expected), std::nullopt);
}

TEST_F(DesignFixture, NvsramWithoutCheckpointHasNoBackup)
{
    NvsramCacheWB c(params, NvsramParams{}, *nvm, &meter);
    store(c, 0x000, 1, 0);
    EXPECT_EQ(persistentMismatch(c, expectedStore(0x000, 1)),
              Addr{ 0x000 });
    // The overlay holds no byte anywhere in NVM.
    mem::ByteImage overlay;
    c.collectPersistentOverlay(overlay);
    std::vector<std::uint8_t> flat(nvm->sizeBytes(), 0xee);
    overlay.applyTo(0, flat.data(), flat.size());
    EXPECT_EQ(flat, std::vector<std::uint8_t>(nvm->sizeBytes(), 0xee));
}

// --- ReplayCache -------------------------------------------------------------

TEST_F(DesignFixture, ReplayStoreDoesNotWaitForNvm)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    load(c, 0x400, 0);  // fill so the store hits
    const Cycle t0 = 10000;
    const Cycle done = store(c, 0x400, 3, t0);
    EXPECT_LT(done - t0, nvm->params().writeAckLatency(4));
    EXPECT_GT(c.persistQueueDepth(), 0u);
}

TEST_F(DesignFixture, ReplayPersistsReachNvmAsynchronously)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    store(c, 0x400, 3, 0);
    c.regionBoundary(100000);
    EXPECT_EQ(nvm->peekInt(0x400, 4), 3u);
    c.tick(200000);  // persists drain in the background
    EXPECT_EQ(c.persistQueueDepth(), 0u);
}

TEST_F(DesignFixture, ReplayCoalescesSameWordPersists)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    Cycle t = 0;
    t = store(c, 0x400, 1, t);
    t = store(c, 0x400, 2, t);  // same word, persist still in flight
    EXPECT_EQ(c.coalescedPersists(), 1u);
    c.regionBoundary(t + 100000);
    EXPECT_EQ(nvm->peekInt(0x400, 4), 2u);  // latest value persisted
}

TEST_F(DesignFixture, ReplayCoalescesAcrossItsOwnLineFill)
{
    // The persist queue is searched after the store's line fill, so
    // a word still queued when the store issues absorbs it even if
    // the fill finishes after that persist has landed.
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    const Cycle t = store(c, 0x400, 1, 0);
    // Evict 0x400 (set 0, two ways) with two loads to the same set.
    load(c, 0x000, t);
    load(c, 0x200, t);
    ASSERT_EQ(c.persistQueueDepth(), 1u);
    const Cycle done = store(c, 0x400, 2, t);  // misses, refills
    EXPECT_EQ(c.coalescedPersists(), 1u);
    EXPECT_EQ(c.persistQueueDepth(), 1u);
    // The queued persist had landed by the time the fill arrived.
    c.tick(done - params.write_hit_latency);
    EXPECT_EQ(c.persistQueueDepth(), 0u);
    c.regionBoundary(done + 100000);
    EXPECT_EQ(nvm->peekInt(0x400, 4), 2u);
}

TEST_F(DesignFixture, ReplayQueueBackpressureStalls)
{
    ReplayParams rp;
    rp.persist_queue_depth = 2;
    ReplayCacheModel c(params, rp, *nvm, &meter);
    Cycle t = 0;
    // Distinct words in one line (hits after the first fill).
    for (unsigned i = 0; i < 8; ++i)
        t = store(c, 0x400 + 8 * i, i, t);
    EXPECT_GT(c.stats().stall_cycles.value(), 0.0);
}

TEST_F(DesignFixture, ReplayLinesNeverDirtySoEvictionsAreSilent)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    store(c, 0x400, 3, 0);
    EXPECT_EQ(c.tags().dirtyCount(), 0u);
}

TEST_F(DesignFixture, ReplayPowerLossDropsQueueAndCache)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    store(c, 0x400, 3, 0);
    c.powerLoss();
    EXPECT_EQ(c.persistQueueDepth(), 0u);
    const auto r = c.access(MemOp::Load, 0x400, 4, 0, nullptr, 10);
    EXPECT_FALSE(r.hit);
}

TEST_F(DesignFixture, ReplayCheckpointNeedsNoEnergy)
{
    ReplayCacheModel c(params, ReplayParams{}, *nvm, &meter);
    EXPECT_DOUBLE_EQ(c.checkpointEnergyBound(), 0.0);
}
