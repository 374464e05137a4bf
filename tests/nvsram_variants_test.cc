/**
 * @file
 * Tests for the NVSRAM(full) and NVSRAM(practical) variants that
 * complete the paper's Table 1 design space (§2.3.3).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/nvsram_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "mem/byte_image.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

struct VariantFixture : public ::testing::Test
{
    VariantFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 1u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
        params.size_bytes = 1024;
        params.assoc = 2;
        params.line_bytes = 64;
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    CacheParams params;
};

} // namespace

TEST_F(VariantFixture, FullVariantPaysForCleanLinesToo)
{
    NvsramParams ideal_p;
    NvsramParams full_p;
    full_p.backup_full = true;

    NvsramCacheWB ideal(params, ideal_p, *nvm, &meter);
    ideal.access(MemOp::Store, 0x000, 4, 1, nullptr, 0);
    ideal.access(MemOp::Load, 0x100, 4, 0, nullptr, 100);
    const double before = meter.get(energy::EnergyCategory::Checkpoint);
    ideal.checkpoint(1000);
    const double ideal_cost =
        meter.get(energy::EnergyCategory::Checkpoint) - before;

    NvsramCacheWB full(params, full_p, *nvm, &meter);
    full.access(MemOp::Store, 0x000, 4, 1, nullptr, 0);
    full.access(MemOp::Load, 0x100, 4, 0, nullptr, 100);
    const double before2 =
        meter.get(energy::EnergyCategory::Checkpoint);
    full.checkpoint(1000);
    const double full_cost =
        meter.get(energy::EnergyCategory::Checkpoint) - before2;

    // Ideal pays one dirty line; full pays both valid lines.
    EXPECT_NEAR(ideal_cost, ideal_p.backup_line_energy, 1e-15);
    EXPECT_NEAR(full_cost, 2.0 * full_p.backup_line_energy, 1e-15);
}

TEST_F(VariantFixture, PracticalSplitsWays)
{
    NvsramPracticalCache c(params, nvCacheParams(),
                           NvsramPracticalParams{}, *nvm, &meter);
    // 1024 B, 2-way -> 8 sets of 1 SRAM + 1 NV way.
    EXPECT_EQ(c.sramTags().numLines(), 8u);
    EXPECT_EQ(c.nvTags().numLines(), 8u);
    EXPECT_EQ(c.sramTags().assoc(), 1u);
}

TEST_F(VariantFixture, PracticalMigratesDirtyVictimToNvWay)
{
    NvsramPracticalCache c(params, nvCacheParams(),
                           NvsramPracticalParams{}, *nvm, &meter);
    Cycle t = 0;
    // Dirty the SRAM way of set 0 (8 sets: set repeats every 512 B).
    t = c.access(MemOp::Store, 0x000, 4, 7, nullptr, t).ready;
    // Conflict-fill the same set: the dirty victim must migrate.
    t = c.access(MemOp::Load, 0x200, 4, 0, nullptr, t).ready;
    // The data now lives (dirty) in the NV way and still hits.
    std::uint64_t v = 0;
    const auto r = c.access(MemOp::Load, 0x000, 4, 0, &v, t + 100);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(v, 7u);
    EXPECT_NE(c.statGroup().find("migrations"), nullptr);
}

TEST_F(VariantFixture, PracticalNvHitsAreSlower)
{
    NvsramPracticalCache c(params, nvCacheParams(),
                           NvsramPracticalParams{}, *nvm, &meter);
    Cycle t = 0;
    t = c.access(MemOp::Store, 0x000, 4, 7, nullptr, t).ready;
    t = c.access(MemOp::Load, 0x200, 4, 0, nullptr, t).ready;  // migrate
    // SRAM hit (0x200 now resident) vs NV hit (0x000 migrated).
    const auto sram_hit =
        c.access(MemOp::Load, 0x200, 4, 0, nullptr, 100000);
    const auto nv_hit =
        c.access(MemOp::Load, 0x000, 4, 0, nullptr, 200000);
    ASSERT_TRUE(sram_hit.hit);
    ASSERT_TRUE(nv_hit.hit);
    EXPECT_GT(nv_hit.ready - 200000, sram_hit.ready - 100000);
}

TEST_F(VariantFixture, PracticalCheckpointMovesDirtySramLines)
{
    NvsramPracticalCache c(params, nvCacheParams(),
                           NvsramPracticalParams{}, *nvm, &meter);
    c.access(MemOp::Store, 0x000, 4, 0xbeef, nullptr, 0);
    c.checkpoint(1000);
    c.powerLoss();
    // The store survives in the NV way's overlay.
    mem::ByteImage expected, overlay;
    const std::uint8_t stored[4] = { 0xef, 0xbe, 0x00, 0x00 };
    expected.write(0x000, stored, 4);
    c.collectPersistentOverlay(overlay);
    EXPECT_EQ(expected.firstMismatch(*nvm, {}, {}), Addr{ 0x000 });
    EXPECT_EQ(expected.firstMismatch(*nvm, overlay, {}), std::nullopt);
    // And the line is still readable after the outage (warm NV way).
    std::uint64_t v = 0;
    const auto r = c.access(MemOp::Load, 0x000, 4, 0, &v, 5000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(v, 0xbeefu);
}

TEST_F(VariantFixture, PracticalBackgroundWritebacksKeepNvWaysClean)
{
    NvsramPracticalCache c(params, nvCacheParams(),
                           NvsramPracticalParams{}, *nvm, &meter);
    Cycle t = 0;
    t = c.access(MemOp::Store, 0x000, 4, 7, nullptr, t).ready;
    t = c.access(MemOp::Load, 0x200, 4, 0, nullptr, t).ready;  // migrate
    // A later store to the same set triggers maintenance: the dirty
    // NV line is written back to main NVM.
    t = c.access(MemOp::Store, 0x200, 4, 9, nullptr, t).ready;
    EXPECT_EQ(nvm->peekInt(0x000, 4), 7u);
}

// --- System-level crash consistency for both variants -----------------------

class NvsramVariantSystem
    : public ::testing::TestWithParam<nvp::DesignKind>
{
};

TEST_P(NvsramVariantSystem, CrashConsistentAcrossOutages)
{
    nvp::ExperimentSpec s;
    s.design = GetParam();
    s.workload = "gsmencode";
    s.power = energy::TraceKind::RfOffice;
    s.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    const auto r = nvp::runExperiment(s);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.consistency_violations, 0u);
    EXPECT_EQ(r.load_value_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, NvsramVariantSystem,
    ::testing::Values(nvp::DesignKind::NvsramFull,
                      nvp::DesignKind::NvsramPractical),
    [](const ::testing::TestParamInfo<nvp::DesignKind> &info) {
        std::string n = nvp::designKindName(info.param);
        for (auto &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(NvsramVariantOrdering, PaperTable1PerformanceOrdering)
{
    // §2.3.3: ideal > practical (NV-way hits and extra traffic slow
    // the practical design); full pays the most checkpoint energy.
    auto run = [](nvp::DesignKind d) {
        nvp::ExperimentSpec s;
        s.design = d;
        s.workload = "gsmencode";
        s.power = energy::TraceKind::RfHome;
        return nvp::runExperiment(s);
    };
    const auto ideal = run(nvp::DesignKind::NvsramWB);
    const auto practical = run(nvp::DesignKind::NvsramPractical);
    const auto full = run(nvp::DesignKind::NvsramFull);
    EXPECT_LT(ideal.total_seconds, practical.total_seconds);
    EXPECT_GE(full.meter.get(energy::EnergyCategory::Checkpoint),
              ideal.meter.get(energy::EnergyCategory::Checkpoint));
}
