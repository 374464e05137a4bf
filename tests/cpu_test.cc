/** @file Unit tests for cpu: ICacheStream, InstrCache, InOrderCore,
 *  RegisterFile. */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "cache/icache.hh"
#include "cache/vcache_wt.hh"
#include "cpu/icache_stream.hh"
#include "cpu/inorder_core.hh"
#include "cpu/register_file.hh"
#include "mem/nvm_memory.hh"

using namespace wlcache;
using namespace wlcache::cpu;

namespace {

ICacheStreamParams
streamParams(std::uint64_t seed = 1)
{
    ICacheStreamParams p;
    p.seed = seed;
    return p;
}

} // namespace

TEST(ICacheStream, ProducesRequestedInstructionCounts)
{
    ICacheStream s(streamParams());
    unsigned total = 0;
    while (total < 1000) {
        const auto run = s.take(1000 - total);
        ASSERT_GE(run.count, 1u);
        ASSERT_LE(run.count, 1000 - total);
        total += run.count;
    }
    EXPECT_EQ(total, 1000u);
}

TEST(ICacheStream, AddressesStayInFootprint)
{
    ICacheStreamParams p = streamParams(3);
    p.code_bytes = 8u << 10;
    ICacheStream s(p);
    for (int i = 0; i < 5000; ++i) {
        const auto run = s.take(16);
        EXPECT_GE(run.pc, p.code_base);
        EXPECT_LT(run.pc + 4ull * run.count,
                  p.code_base + p.code_bytes + 4);
    }
}

TEST(ICacheStream, DeterministicAndCopyable)
{
    ICacheStream a(streamParams(7));
    ICacheStream b(streamParams(7));
    for (int i = 0; i < 100; ++i) {
        const auto ra = a.take(8);
        const auto rb = b.take(8);
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.count, rb.count);
    }
    // Snapshot semantics: a copy resumes identically.
    ICacheStream c = a;
    const auto ra = a.take(8);
    const auto rc = c.take(8);
    EXPECT_EQ(ra.pc, rc.pc);
    EXPECT_EQ(ra.count, rc.count);
}

TEST(ICacheStream, ExhibitsLoopLocality)
{
    // The same PC must recur (loops), giving the I-cache something
    // to exploit.
    ICacheStream s(streamParams(11));
    std::map<Addr, int> seen;
    for (int i = 0; i < 2000; ++i)
        ++seen[s.take(4).pc];
    int repeats = 0;
    for (const auto &[pc, n] : seen)
        repeats += n > 1;
    EXPECT_GT(repeats, 10);
}

namespace {

struct CpuFixture : public ::testing::Test
{
    CpuFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 8u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
        cache::CacheParams cp;  // 8 KB default
        icache = std::make_unique<cache::InstrCache>(
            cp, cache::ICacheKind::Volatile, *nvm, &meter);
        dcache = std::make_unique<cache::VCacheWT>(cp, *nvm, &meter);
        core = std::make_unique<InOrderCore>(
            CoreParams{}, *icache, *dcache, ICacheStream(streamParams()),
            &meter);
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    std::unique_ptr<cache::InstrCache> icache;
    std::unique_ptr<cache::VCacheWT> dcache;
    std::unique_ptr<InOrderCore> core;
};

} // namespace

TEST_F(CpuFixture, ExecuteEventRetiresInstructions)
{
    MemAccess ev{ 9, MemOp::Load, 4, 0x1000, 0 };
    const Cycle end = core->executeEvent(ev, 0);
    EXPECT_EQ(core->instructionsRetired(), 10u);  // gap + the load
    EXPECT_GT(end, 9u);  // at least one cycle per instruction
}

TEST_F(CpuFixture, ComputeEnergyCharged)
{
    MemAccess ev{ 99, MemOp::Load, 4, 0x1000, 0 };
    core->executeEvent(ev, 0);
    EXPECT_NEAR(meter.get(energy::EnergyCategory::Compute),
                100.0 * CoreParams{}.compute_energy_per_insn, 1e-15);
}

TEST_F(CpuFixture, ComputeTableMatchesTheQuantizerAcrossItsEdge)
{
    // 1.5 aJ per instruction puts odd counts on a half-attojoule tie
    // (3 x 1.5 = 4.5 rounds away from zero to 5), where quantizing
    // the per-instruction energy first would give 3 x 2 = 6.
    struct Energy
    {
        double per_insn;
        unsigned min_ties;
    };
    for (const Energy e : { Energy{ CoreParams{}.compute_energy_per_insn, 0 },
                            Energy{ 1.5e-18, 50 } }) {
        SCOPED_TRACE(::testing::Message() << "energy " << e.per_insn);
        CoreParams p;
        p.compute_energy_per_insn = e.per_insn;
        InOrderCore c(p, *icache, *dcache, ICacheStream(streamParams()),
                      &meter);
        unsigned ties = 0;
        Cycle t = 0;
        for (unsigned n = 1; n <= InOrderCore::kComputeTableSize + 2;
             ++n) {
            const double joules = e.per_insn * static_cast<double>(n);
            const double aj = joules * energy::kAttojoulesPerJoule;
            ties += aj - std::floor(aj) == 0.5;
            const energy::Attojoules before =
                meter.getAj(energy::EnergyCategory::Compute);
            const MemAccess ev{ static_cast<std::uint16_t>(n - 1),
                                MemOp::Load, 4, 0x1000, 0 };
            t = c.executeEvent(ev, t);
            ASSERT_EQ(meter.getAj(energy::EnergyCategory::Compute) -
                          before,
                      energy::toAttojoules(joules))
                << n << " instructions";
        }
        EXPECT_GE(ties, e.min_ties);
    }
}

TEST_F(CpuFixture, LoadReturnsFunctionalData)
{
    const std::uint32_t v = 0xfeedf00d;
    nvm->poke(0x2000, 4, &v);
    MemAccess ev{ 0, MemOp::Load, 4, 0x2000, 0 };
    std::uint64_t out = 0;
    core->executeEvent(ev, 0, &out);
    EXPECT_EQ(out, v);
}

TEST_F(CpuFixture, WarmICacheFetchesFasterThanCold)
{
    MemAccess ev{ 200, MemOp::Load, 4, 0x1000, 0 };
    // Snapshot the fetch stream, run once cold, then replay the
    // exact same PC sequence against the now-warm I-cache.
    const ICacheStream snap = core->streamSnapshot();
    const Cycle cold = core->executeEvent(ev, 0);
    core->restoreStream(snap);
    const Cycle warm_start = cold;
    const Cycle warm = core->executeEvent(ev, warm_start) - warm_start;
    EXPECT_LT(warm, cold);
}

TEST(InstrCacheTest, NoneKindStreamsFromNvm)
{
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 8u << 20;
    mem::NvmMemory nvm(np, &meter);
    cache::CacheParams cp;
    cache::InstrCache ic(cp, cache::ICacheKind::None, nvm, &meter);
    const Cycle end = ic.fetchRun(0x400000, 16, 0);
    EXPECT_GE(end, np.readLatency(64));
    EXPECT_GT(nvm.numReads(), 0u);
    EXPECT_DOUBLE_EQ(ic.leakageWatts(), 0.0);
}

TEST(InstrCacheTest, VolatileKindHitsAfterFill)
{
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 8u << 20;
    mem::NvmMemory nvm(np, &meter);
    cache::CacheParams cp;
    cache::InstrCache ic(cp, cache::ICacheKind::Volatile, nvm, &meter);
    ic.fetchRun(0x400000, 16, 0);
    EXPECT_EQ(ic.lineMisses(), 1u);
    const Cycle t0 = 100000;
    const Cycle end = ic.fetchRun(0x400000, 16, t0);
    EXPECT_EQ(ic.lineMisses(), 1u);          // hit this time
    EXPECT_EQ(end - t0, 16u * cp.hit_latency);
    ic.powerLoss();
    ic.fetchRun(0x400000, 16, 200000);
    EXPECT_EQ(ic.lineMisses(), 2u);          // cold after loss
}

TEST(InstrCacheTest, WarmRestoreKindSurvivesOutage)
{
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 8u << 20;
    mem::NvmMemory nvm(np, &meter);
    cache::CacheParams cp;
    cache::InstrCache ic(cp, cache::ICacheKind::WarmRestore, nvm,
                         &meter);
    ic.fetchRun(0x400000, 16, 0);
    ic.powerLoss();
    ic.powerRestore(1000);
    ic.fetchRun(0x400000, 16, 2000);
    EXPECT_EQ(ic.lineMisses(), 1u);  // warm after restore
    EXPECT_GT(meter.get(energy::EnergyCategory::Restore), 0.0);
}

TEST(InstrCacheTest, RunsCrossLineBoundaries)
{
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 8u << 20;
    mem::NvmMemory nvm(np, &meter);
    cache::CacheParams cp;
    cache::InstrCache ic(cp, cache::ICacheKind::Volatile, nvm, &meter);
    // 40 instructions starting mid-line touch 3 lines.
    ic.fetchRun(0x400020, 40, 0);
    EXPECT_EQ(ic.lineMisses(), 3u);
    EXPECT_EQ(ic.fetches(), 40u);
}

TEST(RegisterFileTest, ReadWriteAndSnapshot)
{
    RegisterFile rf;
    rf.write(3, 0x1234);
    EXPECT_EQ(rf.read(3), 0x1234u);
    const auto snap = rf.snapshot();
    rf.write(3, 0);
    rf.restore(snap);
    EXPECT_EQ(rf.read(3), 0x1234u);
    EXPECT_EQ(RegisterFile::sizeBytes(), 64u);
}
