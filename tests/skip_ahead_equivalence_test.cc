/**
 * @file
 * Differential equivalence harness for the two run-loop step modes
 * (DESIGN.md §15). skip_ahead integrates harvested and leaked energy
 * over a whole compute gap in closed form; percycle is the
 * cycle-by-cycle reference. The two must be BIT-identical — same
 * run-record JSON byte for byte (which pins every stats scalar,
 * outage count, interval-rollup cycle stamp, and the final-image
 * digest), same final register file, same post-run snapshot byte
 * stream — across every cache design, a matrix of workloads, and
 * three power environments (infinite, square-wave, recorded), plus a
 * randomized-configuration fuzz sweep.
 *
 * Any divergence here means the closed-form energy math disagrees
 * with the reference integrator on some threshold crossing, clamp, or
 * sample boundary — exactly the class of bug this harness exists to
 * catch before it can silently skew a figure.
 */

#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "energy/power_trace.hh"
#include "mem/device/tech_profile.hh"
#include "nvp/experiment.hh"
#include "nvp/run_json.hh"
#include "nvp/system.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

std::string
resultJson(const nvp::RunResult &r)
{
    std::ostringstream os;
    nvp::writeRunResultJson(os, r);
    return os.str();
}

/**
 * A harsh on/off ambient: full power for one sample, nothing for the
 * next. Forces frequent outages with threshold crossings landing at
 * arbitrary offsets inside samples — the adversarial case for the
 * closed-form solver.
 */
energy::PowerTrace
squareWave(double high_w = 28.0e-3, double period_s = 25.0e-6)
{
    std::vector<double> samples;
    for (int i = 0; i < 64; ++i)
        samples.push_back(i % 2 == 0 ? high_w : 0.0);
    return energy::PowerTrace(period_s, samples);
}

/**
 * Run the same (config, trace, power) under both step modes and
 * require bit-identical observables. Returns the skip_ahead result
 * for callers that want to assert progress happened.
 */
nvp::RunResult
expectModesIdentical(nvp::SystemConfig cfg,
                     const workloads::BuiltTrace &trace,
                     const energy::PowerTrace &power,
                     bool infinite_power)
{
    cfg.step_mode = StepMode::SkipAhead;
    nvp::SystemSim skip(cfg, trace, power, infinite_power);
    cfg.step_mode = StepMode::Percycle;
    nvp::SystemSim ref(cfg, trace, power, infinite_power);

    const nvp::RunResult rs = skip.run();
    const nvp::RunResult rr = ref.run();

    // The run-record JSON pins every reported quantity: cycle counts,
    // outage count, energy by category, stats scalars, the interval
    // rollups (with their cycle stamps), and the final-image digest.
    EXPECT_EQ(resultJson(rs), resultJson(rr));
    EXPECT_EQ(rs.final_state_digest, rr.final_state_digest);
    EXPECT_EQ(rs.outages, rr.outages);
    EXPECT_EQ(rs.on_cycles, rr.on_cycles);

    // Architectural register file.
    for (unsigned i = 0; i < cpu::RegisterFile::kNumRegs; ++i) {
        EXPECT_EQ(skip.core().regs().read(i), ref.core().regs().read(i))
            << "r" << i;
    }

    // Complete end-of-run machine state, byte for byte. The snapshot
    // compat key neutralizes step_mode, so the keys must agree too.
    const nvp::SystemSnapshot ss = skip.takeSnapshot();
    const nvp::SystemSnapshot sr = ref.takeSnapshot();
    EXPECT_EQ(ss.compat_key, sr.compat_key);
    EXPECT_EQ(ss.cycle, sr.cycle);
    EXPECT_EQ(ss.event_index, sr.event_index);
    EXPECT_EQ(ss.state, sr.state);

    return rs;
}

/** The power environments of the equivalence matrix. */
enum class PowerEnv
{
    Infinite,    //!< no_failure: outage machinery never fires.
    SquareWave,  //!< Synthetic on/off ambient, frequent outages.
    Recorded,    //!< A recorded trace from the paper's set.
};

const char *
powerEnvName(PowerEnv e)
{
    switch (e) {
      case PowerEnv::Infinite:   return "Infinite";
      case PowerEnv::SquareWave: return "SquareWave";
      case PowerEnv::Recorded:   return "Recorded";
    }
    return "?";
}

const nvp::DesignKind kAllDesigns[] = {
    nvp::DesignKind::NoCache,         nvp::DesignKind::VCacheWT,
    nvp::DesignKind::NVCacheWB,       nvp::DesignKind::NvsramWB,
    nvp::DesignKind::NvsramFull,      nvp::DesignKind::NvsramPractical,
    nvp::DesignKind::Replay,          nvp::DesignKind::WtBuffered,
    nvp::DesignKind::WL,              nvp::DesignKind::WLLog,
};

/** Small-footprint workloads: the matrix runs each of them 54 times. */
const char *const kMatrixWorkloads[] = {
    "sha", "dijkstra", "qsort", "adpcmdecode", "adpcmencode",
    "basicmath",
};

} // namespace

// --- The full equivalence matrix -----------------------------------------

class SkipAheadMatrix
    : public ::testing::TestWithParam<std::tuple<nvp::DesignKind, PowerEnv>>
{
};

TEST_P(SkipAheadMatrix, BitIdenticalAcrossWorkloads)
{
    const auto [design, env] = GetParam();
    const nvp::SystemConfig cfg = nvp::SystemConfig::forDesign(design);

    const energy::PowerTrace recorded =
        energy::makeTrace(energy::TraceKind::RfHome,
                          energy::TraceGenConfig{ /*seed=*/7 });
    const energy::PowerTrace square = squareWave();

    for (const char *app : kMatrixWorkloads) {
        SCOPED_TRACE(app);
        const workloads::BuiltTrace &trace =
            workloads::getTrace(app, /*scale=*/1, /*seed=*/42);
        const energy::PowerTrace &power =
            env == PowerEnv::SquareWave ? square : recorded;
        const nvp::RunResult r = expectModesIdentical(
            cfg, trace, power, env == PowerEnv::Infinite);
        EXPECT_GT(r.instructions, 0u);
        if (env == PowerEnv::Infinite) {
            EXPECT_TRUE(r.completed);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAllPower, SkipAheadMatrix,
    ::testing::Combine(::testing::ValuesIn(kAllDesigns),
                       ::testing::Values(PowerEnv::Infinite,
                                         PowerEnv::SquareWave,
                                         PowerEnv::Recorded)),
    [](const ::testing::TestParamInfo<SkipAheadMatrix::ParamType> &info) {
        // Paper design names contain '-', invalid in gtest names.
        std::string name = nvp::designKindName(std::get<0>(info.param));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + powerEnvName(std::get<1>(info.param));
    });

// --- Adversarial corners --------------------------------------------------

TEST(SkipAheadCorners, DeadEnvironmentIdenticalGiveUp)
{
    // Zero ambient power: the run dies before the first checkpoint in
    // both modes, with the same (failed) record.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    const energy::PowerTrace dead(1.0e-3, { 0.0 });
    const nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    const nvp::RunResult r =
        expectModesIdentical(cfg, trace, dead, false);
    EXPECT_FALSE(r.completed);
}

TEST(SkipAheadCorners, KnifeEdgePowerIdenticalOutageCycles)
{
    // Ambient power close to the consumption level: the capacitor
    // hovers near Vbackup, so the outage comparator's equality edge
    // gets exercised constantly.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("dijkstra", 1, 42);
    const energy::PowerTrace knife(20.0e-6, { 9.0e-3, 7.0e-3, 8.0e-3 });
    const nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    expectModesIdentical(cfg, trace, knife, false);
}

TEST(SkipAheadCorners, WlDynamicThresholdsIdentical)
{
    // wl_dynamic recomputes Vbackup (and its quantized comparator
    // level) from run statistics at every boot; both modes must make
    // the same adaptation decisions at the same reboots.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("qsort", 1, 42);
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.wl_dynamic = true;
    expectModesIdentical(cfg, trace, squareWave(), false);
}

TEST(SkipAheadCorners, ConsistencyOracleIdentical)
{
    // With the crash-consistency oracle and load-value checking on,
    // the checked state itself must agree across modes.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::NvsramWB);
    cfg.validate_consistency = true;
    cfg.check_load_values = true;
    const nvp::RunResult r =
        expectModesIdentical(cfg, trace, squareWave(), false);
    EXPECT_GT(r.consistency_checks, 0u);
    EXPECT_EQ(r.consistency_violations, 0u);
}

// --- Banked NVM device model ----------------------------------------------

namespace {

/** Banked queued device with every policy layer on. */
nvp::SystemConfig
bankedDeviceConfig(nvp::DesignKind design)
{
    nvp::SystemConfig cfg = nvp::SystemConfig::forDesign(design);
    cfg.nvm.model = mem::NvmModel::BankedQueue;
    cfg.nvm.track_wear = true;
    return cfg;
}

} // namespace

TEST(SkipAheadDevice, BankedModelBitIdentical)
{
    // The queued device model is closed-form in `now`, so both step
    // modes must see identical stalls, conflicts, and wear.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    const nvp::RunResult r = expectModesIdentical(
        bankedDeviceConfig(nvp::DesignKind::WL), trace, squareWave(),
        false);
    EXPECT_GT(r.nvm_device.wear_lines_touched, 0u);
}

TEST(SkipAheadDevice, DeepBankQueuesBitIdentical)
{
    // Deep queues absorb write bursts entirely; shallow ones push
    // back-pressure into the issuing core. Both extremes must agree
    // across step modes.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("qsort", 1, 42);
    for (const unsigned depth : { 1u, 2u, 16u }) {
        SCOPED_TRACE("queue_depth=" + std::to_string(depth));
        nvp::SystemConfig cfg =
            bankedDeviceConfig(nvp::DesignKind::WL);
        cfg.nvm.queue_depth = depth;
        expectModesIdentical(cfg, trace, squareWave(), false);
    }
}

TEST(SkipAheadDevice, WearRotationBitIdentical)
{
    const workloads::BuiltTrace &trace =
        workloads::getTrace("dijkstra", 1, 42);
    nvp::SystemConfig cfg = bankedDeviceConfig(nvp::DesignKind::WL);
    cfg.nvm.wear_scheme = mem::NvmWearScheme::Rotate;
    cfg.nvm.rotate_period_writes = 64;
    const nvp::RunResult r =
        expectModesIdentical(cfg, trace, squareWave(), false);
    EXPECT_GT(r.nvm_device.wear_lines_touched, 0u);
}

TEST(SkipAheadDevice, HybridFastRegionBitIdentical)
{
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    nvp::SystemConfig cfg =
        bankedDeviceConfig(nvp::DesignKind::VCacheWT);
    cfg.nvm.hybrid_lines = 8;
    cfg.nvm.hybrid_promote_writes = 2;
    expectModesIdentical(cfg, trace, squareWave(), false);
}

TEST(SkipAheadDevice, FlashProfileWithRetriesBitIdentical)
{
    // Flash-like timing stretches every write by verify retries and
    // shifts outage timing massively; the modes must still agree.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    nvp::SystemConfig cfg = bankedDeviceConfig(nvp::DesignKind::WL);
    mem::applyTechProfile(cfg.nvm,
                          *mem::findTechProfile("flash"));
    expectModesIdentical(cfg, trace, squareWave(), false);
}

// --- Randomized-configuration fuzz ---------------------------------------

TEST(SkipAheadFuzz, RandomConfigsBitIdentical)
{
    // ~100 random (design, workload, power, platform-knob) points.
    // Seeded Rng: the sweep is deterministic run to run.
    Rng rng(0x5eed'ca11u);
    const char *const apps[] = { "sha", "dijkstra", "qsort",
                                 "adpcmdecode" };
    unsigned checked = 0;

    for (unsigned i = 0; i < 100; ++i) {
        const nvp::DesignKind design =
            kAllDesigns[rng.nextBelow(std::size(kAllDesigns))];
        const char *app = apps[rng.nextBelow(std::size(apps))];
        nvp::SystemConfig cfg = nvp::SystemConfig::forDesign(design);

        // Platform knobs that move every threshold the closed-form
        // solver has to hit exactly.
        cfg.platform.capacitance_f = 0.5e-6 + 1.5e-6 * rng.nextDouble();
        cfg.platform.harvest_efficiency =
            0.5 + 0.45 * rng.nextDouble();
        cfg.max_interval_rollups =
            rng.nextBelow(4) == 0 ? 4u : 256u;
        if (nvp::isWlFamily(design) && rng.nextBelow(2) == 0)
            cfg.wl_dynamic = true;

        // WL-Log journal geometry: exercise wrap frequency (small
        // regions), segment granularity, and both watermark regimes.
        if (design == nvp::DesignKind::WLLog) {
            cfg.log.region_lines = 32 + rng.nextBelow(256);
            cfg.log.segment_bytes = 512u << rng.nextBelow(3);
            cfg.log.compaction_watermark =
                0.3 + 0.6 * rng.nextDouble();
        }

        // Device-model knobs: banked queues, wear tracking, and
        // rotation all have to hold the bit-identity invariant too.
        if (rng.nextBelow(2) == 0) {
            cfg.nvm.model = mem::NvmModel::BankedQueue;
            cfg.nvm.queue_depth = 1 + rng.nextBelow(8);
        }
        if (rng.nextBelow(2) == 0)
            cfg.nvm.track_wear = true;
        if (rng.nextBelow(4) == 0) {
            cfg.nvm.wear_scheme = mem::NvmWearScheme::Rotate;
            cfg.nvm.rotate_period_writes = 32 + rng.nextBelow(256);
        }

        // Random square wave: amplitude, duty pattern, phase length.
        std::vector<double> samples;
        const double high = 10.0e-3 + 30.0e-3 * rng.nextDouble();
        const unsigned pattern = 2 + rng.nextBelow(5);
        for (unsigned s = 0; s < 32; ++s)
            samples.push_back(s % pattern == 0 ? high : 0.0);
        const double period = 10.0e-6 + 40.0e-6 * rng.nextDouble();
        const energy::PowerTrace power(period, samples);

        const bool infinite = rng.nextBelow(8) == 0;

        SCOPED_TRACE(std::string(nvp::designKindName(design)) + "/" +
                     app + " point " + std::to_string(i));
        const workloads::BuiltTrace &trace =
            workloads::getTrace(app, 1, 42);
        expectModesIdentical(cfg, trace, power, infinite);
        ++checked;
    }
    EXPECT_GE(checked, 100u);
}
