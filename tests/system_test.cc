/**
 * @file
 * Whole-system integration tests: every design completes every
 * checked workload with a correct final NVM image, both with
 * infinite power and across power failures; load values match the
 * recorded trace; WL-Cache adaptive statistics are populated.
 */

#include <gtest/gtest.h>

#include "nvp/experiment.hh"

using namespace wlcache;
using namespace wlcache::nvp;

namespace {

/** Designs x small app set exercised in integration tests. */
const DesignKind kDesigns[] = {
    DesignKind::NoCache,   DesignKind::VCacheWT,
    DesignKind::NVCacheWB, DesignKind::NvsramWB,
    DesignKind::Replay,    DesignKind::WL,
};

const char *const kApps[] = { "sha", "dijkstra", "adpcmdecode" };

ExperimentSpec
makeSpec(DesignKind d, const char *app, bool no_failure,
         energy::TraceKind power = energy::TraceKind::RfHome)
{
    ExperimentSpec s;
    s.design = d;
    s.workload = app;
    s.no_failure = no_failure;
    s.power = power;
    s.tweak = [](SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    return s;
}

} // namespace

struct SystemCase
{
    DesignKind design;
    const char *app;
};

class SystemNoFailure : public ::testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemNoFailure, CompletesCorrectly)
{
    const auto r =
        runExperiment(makeSpec(GetParam().design, GetParam().app, true));
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.outages, 0u);
    EXPECT_EQ(r.load_value_mismatches, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.on_cycles, 0u);
    EXPECT_DOUBLE_EQ(r.off_seconds, 0.0);
}

class SystemWithOutages : public ::testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemWithOutages, CompletesCorrectlyAcrossFailures)
{
    const auto r = runExperiment(
        makeSpec(GetParam().design, GetParam().app, false,
                 energy::TraceKind::RfOffice));
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.consistency_violations, 0u)
        << "crash consistency violated at a recovery point";
    EXPECT_EQ(r.load_value_mismatches, 0u);
    EXPECT_EQ(r.reserve_violations, 0u)
        << "JIT checkpoint exceeded its reserved energy";
    EXPECT_GT(r.off_seconds, 0.0);
}

namespace {

std::vector<SystemCase>
allCases()
{
    std::vector<SystemCase> cases;
    for (const auto d : kDesigns)
        for (const auto *app : kApps)
            cases.push_back({ d, app });
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<SystemCase> &info)
{
    std::string n = std::string(designKindName(info.param.design)) +
        "_" + info.param.app;
    for (auto &c : n)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllDesigns, SystemNoFailure,
                         ::testing::ValuesIn(allCases()), caseName);
INSTANTIATE_TEST_SUITE_P(AllDesigns, SystemWithOutages,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(System, OutagesHappenUnderRfTraces)
{
    // At least some of the designs must experience real outages on
    // the unstable Mementos trace, or the traces are mis-scaled.
    ExperimentSpec s =
        makeSpec(DesignKind::NVCacheWB, "g721decode", false,
                 energy::TraceKind::RfMementos);
    const auto r = runExperiment(s);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.outages, 3u);
}

TEST(System, WlAdaptiveStatsPopulated)
{
    ExperimentSpec s = makeSpec(DesignKind::WL, "g721decode", false,
                                energy::TraceKind::RfMementos);
    const auto r = runExperiment(s);
    EXPECT_TRUE(r.completed);
    if (r.outages > 4) {
        EXPECT_GT(r.wl.avg_dirty_at_ckpt, 0.0);
        EXPECT_GE(r.wl.maxline_max_seen, r.wl.maxline_min_seen);
        EXPECT_GE(r.wl.prediction_accuracy, 0.2);
        EXPECT_LE(r.wl.prediction_accuracy, 1.0);
    }
}

TEST(System, WlDynamicAdaptationRuns)
{
    ExperimentSpec s = makeSpec(DesignKind::WL, "jpegencode", false,
                                energy::TraceKind::Thermal);
    s.tweak = [](SystemConfig &cfg) {
        cfg.wl_dynamic = true;
        cfg.adaptive.enabled = false;
        cfg.wl.maxline = 2;
        cfg.validate_consistency = true;
    };
    const auto r = runExperiment(s);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.consistency_violations, 0u);
    EXPECT_GT(r.wl.dyn_maxline_raises, 0u);
}

TEST(System, EagerCleanupAblationStaysConsistent)
{
    ExperimentSpec s = makeSpec(DesignKind::WL, "dijkstra", false,
                                energy::TraceKind::RfOffice);
    s.tweak = [](SystemConfig &cfg) {
        cfg.wl.eager_evict_cleanup = true;
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    const auto r = runExperiment(s);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.consistency_violations, 0u);
}

TEST(System, SpeedupVsComputesRatio)
{
    RunResult a, b;
    a.total_seconds = 2.0;
    b.total_seconds = 4.0;
    EXPECT_DOUBLE_EQ(speedupVs(a, b), 2.0);
}

TEST(System, NvsramBeatsWriteThroughWithoutFailures)
{
    // Basic sanity on the performance ordering (paper Figure 4).
    const auto wt = runExperiment(
        makeSpec(DesignKind::VCacheWT, "sha", true));
    const auto nvsram = runExperiment(
        makeSpec(DesignKind::NvsramWB, "sha", true));
    const auto nocache = runExperiment(
        makeSpec(DesignKind::NoCache, "sha", true));
    EXPECT_GT(speedupVs(nvsram, wt), 1.2);
    EXPECT_GT(speedupVs(wt, nocache), 2.0);
}

TEST(System, WlTracksNvsramWithoutFailures)
{
    const auto wl =
        runExperiment(makeSpec(DesignKind::WL, "sha", true));
    const auto nvsram = runExperiment(
        makeSpec(DesignKind::NvsramWB, "sha", true));
    const double ratio = speedupVs(wl, nvsram);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
}

TEST(System, WlBeatsNvCacheEverywhere)
{
    for (const bool no_failure : { true, false }) {
        const auto wl = runExperiment(
            makeSpec(DesignKind::WL, "gsmdecode", no_failure));
        const auto nvc = runExperiment(
            makeSpec(DesignKind::NVCacheWB, "gsmdecode", no_failure));
        EXPECT_GT(speedupVs(wl, nvc), 1.5)
            << "no_failure=" << no_failure;
    }
}

TEST(System, CapacitorSizeAffectsExecutionTime)
{
    auto with_cap = [](double farads) {
        ExperimentSpec s = makeSpec(DesignKind::WL, "sha", false);
        s.tweak = [farads](SystemConfig &cfg) {
            cfg.platform.capacitance_f = farads;
        };
        return runExperiment(s);
    };
    const auto small = with_cap(1.0e-6);
    const auto huge = with_cap(470.0e-6);
    ASSERT_TRUE(small.completed);
    ASSERT_TRUE(huge.completed);
    // A much larger capacitor spends far longer charging initially
    // (paper Figure 10b: execution time grows with capacitor size).
    EXPECT_GT(huge.total_seconds, small.total_seconds * 5);
}
