/**
 * @file
 * Negative controls for the crash-consistency oracle: a checker that
 * never fires is worthless, so these tests inject real faults
 * (skipped JIT checkpoints, dropped dirty state) and require the
 * oracle to flag them. Plus model-sanity sweeps: basic performance
 * invariants that must hold for every workload if the simulator is
 * wired correctly.
 */

#include <gtest/gtest.h>

#include "core/wl_cache.hh"
#include "mem/byte_image.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"

using namespace wlcache;
using namespace wlcache::nvp;

TEST(OracleNegative, SkippedCheckpointIsDetectedForWl)
{
    ExperimentSpec s;
    s.design = DesignKind::WL;
    s.workload = "adpcmencode";  // store-heavy: dirty lines at ckpt
    s.power = energy::TraceKind::RfOffice;
    s.tweak = [](SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.inject_checkpoint_skip = true;  // FAULT
    };
    const auto r = runExperiment(s);
    ASSERT_GT(r.outages, 0u) << "fault never exercised";
    EXPECT_GT(r.consistency_violations, 0u)
        << "oracle failed to detect dropped dirty lines";
}

TEST(OracleNegative, SkippedCheckpointIsDetectedForNvsram)
{
    ExperimentSpec s;
    s.design = DesignKind::NvsramWB;
    s.workload = "adpcmencode";
    s.power = energy::TraceKind::RfOffice;
    s.tweak = [](SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.inject_checkpoint_skip = true;  // FAULT
    };
    const auto r = runExperiment(s);
    ASSERT_GT(r.outages, 0u);
    EXPECT_GT(r.consistency_violations, 0u);
    EXPECT_FALSE(r.final_state_correct);
}

TEST(OracleNegative, WriteThroughSurvivesSkippedCheckpoint)
{
    // Control for the control: a write-through cache's persistence
    // never depended on the checkpoint, so the same fault must NOT
    // trip the oracle.
    ExperimentSpec s;
    s.design = DesignKind::VCacheWT;
    s.workload = "adpcmencode";
    s.power = energy::TraceKind::RfOffice;
    s.tweak = [](SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.inject_checkpoint_skip = true;
    };
    const auto r = runExperiment(s);
    ASSERT_GT(r.outages, 0u);
    EXPECT_EQ(r.consistency_violations, 0u);
    EXPECT_TRUE(r.final_state_correct);
}

TEST(OracleNegative, PersistCheckerSeesDroppedDirtyLine)
{
    // Micro-level: dirty a WL-Cache line, lose power WITHOUT a
    // checkpoint, and require the checker to see the divergence.
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 1u << 16;
    mem::NvmMemory nvm(np, &meter);
    core::WLCache wl(cache::sramCacheParams(), core::WlParams{}, nvm,
                     &meter);
    mem::ByteImage expected;

    wl.access(MemOp::Store, 0x100, 4, 0xdead, nullptr, 0);
    const std::uint8_t stored[4] = { 0xad, 0xde, 0x00, 0x00 };
    expected.write(0x100, stored, 4);
    wl.powerLoss();  // no checkpoint: the store is gone

    mem::ByteImage overlay;
    wl.collectPersistentOverlay(overlay);
    EXPECT_EQ(expected.firstMismatch(nvm, overlay, {}), Addr{ 0x100 });
}

// --- Model sanity sweeps ------------------------------------------------------

class ModelSanity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ModelSanity, CachedDesignPerformsSanely)
{
    ExperimentSpec s;
    s.design = DesignKind::WL;
    s.workload = GetParam();
    s.no_failure = true;
    const auto r = runExperiment(s);
    ASSERT_TRUE(r.completed);
    // An 8 KB cache on these kernels must hit the vast majority of
    // loads, and the in-order core must stay within sane IPC bounds.
    EXPECT_GT(r.dcache_load_hit_rate, 0.6) << GetParam();
    const double ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.on_cycles);
    // Capacity-thrashing kernels (FFT streams 36 KB through an 8 KB
    // cache) legitimately sit below 0.1 IPC on this platform.
    EXPECT_GT(ipc, 0.05) << GetParam();
    EXPECT_LE(ipc, 1.0 + 1e-9) << GetParam();
}

TEST_P(ModelSanity, CacheBeatsNoCacheSubstantially)
{
    ExperimentSpec s;
    s.workload = GetParam();
    s.no_failure = true;
    s.design = DesignKind::WL;
    const auto wl = runExperiment(s);
    s.design = DesignKind::NoCache;
    const auto nc = runExperiment(s);
    // The paper's premise: caching buys multiples, not percents.
    EXPECT_GT(speedupVs(wl, nc), 2.0) << GetParam();
}

namespace {

std::vector<const char *>
sanityApps()
{
    // A spread across suites and behaviours (streaming, pointer
    // chasing, table lookups, block transforms).
    return { "sha", "adpcmdecode", "jpegencode", "patricia",
             "dijkstra", "FFT", "rijndael_e", "gsmencode" };
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Spread, ModelSanity, ::testing::ValuesIn(sanityApps()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(ModelSanity, EnergyBreakdownAccountsForCapacitorDraw)
{
    // Everything drawn from the capacitor must appear in the meter:
    // run with failures and check the breakdown is populated across
    // categories.
    ExperimentSpec s;
    s.design = DesignKind::WL;
    s.workload = "gsmdecode";
    s.power = energy::TraceKind::RfHome;
    const auto r = runExperiment(s);
    ASSERT_TRUE(r.completed);
    using energy::EnergyCategory;
    EXPECT_GT(r.meter.get(EnergyCategory::Compute), 0.0);
    EXPECT_GT(r.meter.get(EnergyCategory::CacheRead), 0.0);
    EXPECT_GT(r.meter.get(EnergyCategory::CacheWrite), 0.0);
    EXPECT_GT(r.meter.get(EnergyCategory::MemRead), 0.0);
    EXPECT_GT(r.meter.get(EnergyCategory::MemWrite), 0.0);
    EXPECT_GT(r.meter.get(EnergyCategory::Leakage), 0.0);
    if (r.outages > 0) {
        EXPECT_GT(r.meter.get(EnergyCategory::Checkpoint), 0.0);
        EXPECT_GT(r.meter.get(EnergyCategory::Restore), 0.0);
    }
    // Compute work should be a visible fraction of the budget.
    EXPECT_GT(r.meter.get(EnergyCategory::Compute) / r.meter.total(),
              0.05);
}

TEST(ModelSanity, StatsDumpListsComponents)
{
    const auto &trace = workloads::getTrace("sha");
    auto cfg = SystemConfig::forDesign(DesignKind::WL);
    const auto power = energy::makeTrace(energy::TraceKind::Constant);
    SystemSim sim(cfg, trace, power, /*infinite=*/true);
    sim.run();
    std::ostringstream os;
    sim.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("system.wl_cache.loads"), std::string::npos);
    EXPECT_NE(out.find("system.icache.fetches"), std::string::npos);
    EXPECT_NE(out.find("system.core.instructions"), std::string::npos);
    EXPECT_NE(out.find("system.nvm.writes"), std::string::npos);
}

TEST(ModelSanity, NvffCheckpointsOncePerOutage)
{
    ExperimentSpec s;
    s.design = DesignKind::WL;
    s.workload = "dijkstra";
    s.power = energy::TraceKind::RfMementos;
    const auto r = runExperiment(s);
    ASSERT_TRUE(r.completed);
    // (The NVFF bank is internal to SystemSim; outage count is the
    // externally visible proxy — regs checkpoint exactly then.)
    EXPECT_GT(r.outages, 0u);
    EXPECT_GT(r.meter.get(energy::EnergyCategory::Checkpoint), 0.0);
}
