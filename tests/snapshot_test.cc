/**
 * @file
 * Deterministic-snapshot tests: the sectioned serializer round-trips
 * every field kind, and — the load-bearing property — a run resumed from
 * any interval snapshot is observationally identical to the cold run
 * (byte-identical run-record JSON, same final-image digest), fuzzed
 * across designs, workloads, and power environments. Also pins the
 * fault-campaign fast-forward path: a snapshot-accelerated campaign
 * must produce a byte-identical report to a cold one while
 * simulating several times fewer cycles, and each point resumes from
 * the latest snapshot strictly before it.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dirty_queue.hh"
#include "mem/nvm_params.hh"
#include "nvp/experiment.hh"
#include "nvp/run_json.hh"
#include "nvp/snapshot.hh"
#include "nvp/system.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"
#include "util/fs.hh"
#include "verify/campaign.hh"
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

} // namespace

// --- Serializer primitives ---

TEST(SnapshotIo, WriterReaderRoundTrip)
{
    SnapshotWriter w;
    w.section("TST ");
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-1.5e-300);
    w.f64(0.1);  // not exactly representable; must bit-round-trip
    w.b(true);
    w.b(false);
    w.str("hello snapshot");
    w.vecU8({ 1, 2, 3, 255 });
    const std::uint8_t raw[3] = { 9, 8, 7 };
    w.bytes(raw, sizeof(raw));

    SnapshotReader r(w.data());
    r.section("TST ");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.f64(), -1.5e-300);
    EXPECT_DOUBLE_EQ(r.f64(), 0.1);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_EQ(r.vecU8(), (std::vector<std::uint8_t>{ 1, 2, 3, 255 }));
    std::uint8_t got[3] = {};
    r.bytes(got, sizeof(got));
    EXPECT_EQ(got[0], 9);
    EXPECT_EQ(got[2], 7);
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotIo, SectionMismatchIsFatal)
{
    SnapshotWriter w;
    w.section("AAAA");
    w.u32(1);
    SnapshotReader r(w.data());
    EXPECT_DEATH(r.section("BBBB"), "");
}

TEST(SnapshotIo, UnderflowIsFatal)
{
    SnapshotWriter w;
    w.u8(1);
    SnapshotReader r(w.data());
    r.u8();
    EXPECT_DEATH(r.u32(), "");
}

TEST(SnapshotIo, LoadSideGeometryMismatchIsFatal)
{
    // The one-serializer form keeps the load-side checks: a 6-slot
    // dirty queue's state restores into a 6-slot queue but not into
    // an 8-slot one.
    core::DirtyQueue six(6, cache::ReplPolicy::FIFO);
    SnapshotWriter w;
    StateIo::save(six, w);

    core::DirtyQueue same(6, cache::ReplPolicy::FIFO);
    SnapshotReader ok(w.data());
    StateIo::load(same, ok);
    EXPECT_TRUE(ok.atEnd());

    core::DirtyQueue eight(8, cache::ReplPolicy::FIFO);
    SnapshotReader r(w.data());
    EXPECT_DEATH(StateIo::load(eight, r),
                 "dirty-queue snapshot capacity mismatch: snapshot "
                 "has 6, this system has 8");
}

// --- Resume-equivalence fuzz ---

namespace {

struct FuzzCase
{
    nvp::DesignKind design;
    const char *app;
    bool no_failure;
    energy::TraceKind power;
};

const FuzzCase kFuzzCases[] = {
    { nvp::DesignKind::WL, "sha", true, energy::TraceKind::Constant },
    { nvp::DesignKind::WL, "dijkstra", false,
      energy::TraceKind::RfHome },
    { nvp::DesignKind::VCacheWT, "sha", false,
      energy::TraceKind::RfHome },
    { nvp::DesignKind::NVCacheWB, "adpcmdecode", false,
      energy::TraceKind::RfOffice },
    { nvp::DesignKind::NvsramWB, "sha", false,
      energy::TraceKind::Solar },
    { nvp::DesignKind::Replay, "dijkstra", true,
      energy::TraceKind::Constant },
    { nvp::DesignKind::WtBuffered, "adpcmdecode", false,
      energy::TraceKind::RfHome },
    { nvp::DesignKind::NoCache, "sha", false,
      energy::TraceKind::Thermal },
    { nvp::DesignKind::NvsramPractical, "dijkstra", false,
      energy::TraceKind::RfOffice },
    { nvp::DesignKind::NvsramFull, "adpcmdecode", false,
      energy::TraceKind::RfHome },
    { nvp::DesignKind::WLLog, "sha", false, energy::TraceKind::RfHome },
};

nvp::ExperimentSpec
fuzzSpec(const FuzzCase &c)
{
    nvp::ExperimentSpec s;
    s.design = c.design;
    s.workload = c.app;
    s.no_failure = c.no_failure;
    s.power = c.power;
    s.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    return s;
}

} // namespace

TEST(SnapshotResume, FuzzObservationalIdentity)
{
    std::mt19937 rng(20260807u);
    std::size_t total_points = 0;

    for (const FuzzCase &c : kFuzzCases) {
        const nvp::ExperimentSpec spec = fuzzSpec(c);
        SCOPED_TRACE(std::string(nvp::designKindName(c.design)) +
                     "/" + c.app);

        // Cold baseline, no snapshot machinery at all.
        const nvp::RunResult cold = nvp::runExperiment(spec);
        const std::string cold_json = resultJson(cold);
        ASSERT_TRUE(cold.on_cycles > 0);

        // Same run with interval captures: taking snapshots must not
        // perturb the simulation in any observable way.
        std::vector<nvp::SystemSnapshot> snaps;
        nvp::RunOptions ro;
        ro.snapshot_interval =
            std::max<Cycle>(1, cold.on_cycles / 18);
        ro.snapshot_sink = [&snaps](nvp::SystemSnapshot &&s) {
            snaps.push_back(std::move(s));
        };
        const nvp::RunResult with_caps =
            nvp::runExperiment(spec, ro);
        EXPECT_EQ(resultJson(with_caps), cold_json);
        ASSERT_FALSE(snaps.empty());

        // Resume from up to 13 random capture points; every resumed
        // run must be byte-identical to the cold record.
        std::vector<std::size_t> order(snaps.size());
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        const std::size_t n_resume =
            std::min<std::size_t>(13, order.size());
        for (std::size_t k = 0; k < n_resume; ++k) {
            const nvp::SystemSnapshot &snap = snaps[order[k]];
            ASSERT_TRUE(snap.valid());
            nvp::RunOptions rr;
            rr.resume = &snap;
            const nvp::RunResult resumed =
                nvp::runExperiment(spec, rr);
            EXPECT_EQ(resultJson(resumed), cold_json)
                << "resume at cycle " << snap.cycle;
            EXPECT_EQ(resumed.final_state_digest,
                      cold.final_state_digest);
            ++total_points;
        }
    }
    // The fuzz only counts if it actually covered enough points.
    EXPECT_GE(total_points, 100u);
}

TEST(SnapshotResume, ResaveIsByteIdentical)
{
    // A field that one direction of a component's serializer covers
    // and the other does not leaves the restored system different
    // from the one that was cut; re-saving it exposes that byte for
    // byte, for every design in the design table.
    const std::vector<std::string> designs = nvp::designShortNames();
    ASSERT_GE(designs.size(), 10u);
    for (const std::string &name : designs) {
        nvp::ExperimentSpec spec;
        ASSERT_TRUE(nvp::designFromShortName(name, spec.design));
        spec.tweak = [](nvp::SystemConfig &cfg) {
            cfg.validate_consistency = true;
            cfg.check_load_values = true;
        };
        SCOPED_TRACE(nvp::designKindName(spec.design));

        const nvp::RunResult cold = nvp::runExperiment(spec);
        nvp::SystemSnapshot cut;
        nvp::RunOptions ro;
        ro.snapshot_interval = std::max<Cycle>(1, cold.on_cycles / 2);
        ro.snapshot_sink = [&cut](nvp::SystemSnapshot &&s) {
            if (!cut.valid())
                cut = std::move(s);
        };
        nvp::runExperiment(spec, ro);
        ASSERT_TRUE(cut.valid());

        energy::TraceGenConfig tg;
        tg.seed = spec.power_seed;
        const energy::PowerTrace power = energy::makeTrace(spec.power, tg);
        nvp::SystemSim fresh(
            nvp::resolveConfig(spec),
            workloads::getTrace(spec.workload, spec.scale,
                                spec.workload_seed),
            power, spec.no_failure);
        fresh.restoreSnapshot(cut);
        EXPECT_EQ(fresh.takeSnapshot().state, cut.state);
    }
}

TEST(SnapshotKey, IndependentOfWhenItIsBuilt)
{
    // The compat key is built on first use: read before run() on one
    // system, or first built by a mid-run snapshot on a twin, it is
    // the same key.
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    energy::TraceGenConfig tg;
    tg.seed = 7;
    const energy::PowerTrace power =
        energy::makeTrace(energy::TraceKind::RfHome, tg);
    const nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);

    const nvp::SystemSim early(cfg, trace, power);
    const std::string key = early.snapshotKey();

    nvp::SystemSim late(cfg, trace, power);
    nvp::SystemSnapshot cut;
    nvp::RunOptions ro;
    ro.snapshot_interval = 100000;
    ro.snapshot_sink = [&cut](nvp::SystemSnapshot &&s) {
        if (!cut.valid())
            cut = std::move(s);
    };
    late.run(ro);
    ASSERT_TRUE(cut.valid());
    EXPECT_EQ(cut.compat_key, key);
    EXPECT_EQ(late.snapshotKey(), key);
}

TEST(SnapshotResume, WearStateFuzzObservationalIdentity)
{
    // Same resume-equivalence property with the full device model
    // on: banked queues, per-line endurance counters, and address
    // rotation all ride in the snapshot and must restore bit-exactly
    // — any drift shows up as a differing run record or digest.
    std::mt19937 rng(20260808u);
    std::size_t total_points = 0;

    for (const FuzzCase &c : { kFuzzCases[0], kFuzzCases[1],
                               kFuzzCases[2], kFuzzCases[6] }) {
        nvp::ExperimentSpec spec = fuzzSpec(c);
        spec.tweak = [](nvp::SystemConfig &cfg) {
            cfg.nvm.model = mem::NvmModel::BankedQueue;
            cfg.nvm.queue_depth = 2;
            cfg.nvm.track_wear = true;
            cfg.nvm.wear_scheme = mem::NvmWearScheme::Rotate;
            cfg.nvm.rotate_period_writes = 128;
        };
        SCOPED_TRACE(std::string(nvp::designKindName(c.design)) +
                     "/" + c.app);

        const nvp::RunResult cold = nvp::runExperiment(spec);
        const std::string cold_json = resultJson(cold);
        ASSERT_GT(cold.on_cycles, 0u);
        EXPECT_GT(cold.nvm_device.wear_lines_touched, 0u);
        EXPECT_LT(cold.nvm_device.lifetime_headroom,
                  nvp::SystemConfig::forDesign(c.design)
                      .nvm.endurance_writes);

        std::vector<nvp::SystemSnapshot> snaps;
        nvp::RunOptions ro;
        ro.snapshot_interval =
            std::max<Cycle>(1, cold.on_cycles / 12);
        ro.snapshot_sink = [&snaps](nvp::SystemSnapshot &&s) {
            snaps.push_back(std::move(s));
        };
        const nvp::RunResult with_caps =
            nvp::runExperiment(spec, ro);
        EXPECT_EQ(resultJson(with_caps), cold_json);
        ASSERT_FALSE(snaps.empty());

        std::vector<std::size_t> order(snaps.size());
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        const std::size_t n_resume =
            std::min<std::size_t>(7, order.size());
        for (std::size_t k = 0; k < n_resume; ++k) {
            const nvp::SystemSnapshot &snap = snaps[order[k]];
            ASSERT_TRUE(snap.valid());

            nvp::RunOptions rr;
            rr.resume = &snap;
            const nvp::RunResult resumed =
                nvp::runExperiment(spec, rr);
            EXPECT_EQ(resultJson(resumed), cold_json)
                << "resume at cycle " << snap.cycle;
            EXPECT_EQ(resumed.final_state_digest,
                      cold.final_state_digest);
            EXPECT_EQ(resumed.nvm_device.wear_max, cold.nvm_device.wear_max);
            ++total_points;
        }
    }
    EXPECT_GE(total_points, 25u);
}

TEST(SnapshotResume, TimelineStampsSnapshotEvents)
{
    const FuzzCase c = kFuzzCases[0];
    nvp::ExperimentSpec spec = fuzzSpec(c);
    telemetry::TimelineBuffer tl(1u << 14);
    spec.tweak = [&tl](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
        cfg.timeline = &tl;
    };

    const nvp::RunResult probe = nvp::runExperiment(spec);
    std::vector<nvp::SystemSnapshot> snaps;
    nvp::RunOptions ro;
    ro.snapshot_interval = std::max<Cycle>(1, probe.on_cycles / 4);
    ro.snapshot_sink = [&snaps](nvp::SystemSnapshot &&s) {
        snaps.push_back(std::move(s));
    };
    nvp::runExperiment(spec, ro);
    std::size_t taken = 0;
    tl.forEach([&](const telemetry::TimelineEvent &e) {
        if (e.type == telemetry::EventType::SnapshotTaken)
            ++taken;
    });
    EXPECT_EQ(taken, snaps.size());
    ASSERT_FALSE(snaps.empty());

    nvp::RunOptions rr;
    rr.resume = &snaps.front();
    nvp::runExperiment(spec, rr);
    bool resumed_event = false;
    tl.forEach([&](const telemetry::TimelineEvent &e) {
        if (e.type == telemetry::EventType::SnapshotResume) {
            resumed_event = true;
            EXPECT_EQ(e.cycle, snaps.front().cycle);
        }
    });
    EXPECT_TRUE(resumed_event);
}

// --- Cross-step-mode resume (DESIGN.md §15) ---

namespace {

nvp::ExperimentSpec
modeSpec(const FuzzCase &c, StepMode mode)
{
    nvp::ExperimentSpec s = fuzzSpec(c);
    const auto base = s.tweak;
    s.tweak = [base, mode](nvp::SystemConfig &cfg) {
        base(cfg);
        cfg.step_mode = mode;
    };
    return s;
}

} // namespace

TEST(SnapshotCrossMode, ResumeAcrossStepModesIsByteIdentical)
{
    // Both step modes produce bit-identical state, so a snapshot
    // taken under one mode must resume under the other with a
    // byte-identical run record — in both directions. This is the
    // property that lets the snapshot compat key neutralize
    // step_mode (a percycle-validated checkpoint accelerates a
    // skip_ahead sweep and vice versa).
    for (const FuzzCase &c : { kFuzzCases[0], kFuzzCases[1],
                               kFuzzCases[4] }) {
        SCOPED_TRACE(std::string(nvp::designKindName(c.design)) +
                     "/" + c.app);
        const nvp::ExperimentSpec skip_spec =
            modeSpec(c, StepMode::SkipAhead);
        const nvp::ExperimentSpec ref_spec =
            modeSpec(c, StepMode::Percycle);

        const nvp::RunResult cold = nvp::runExperiment(skip_spec);
        const std::string cold_json = resultJson(cold);
        ASSERT_GT(cold.on_cycles, 0u);

        // Capture under percycle...
        std::vector<nvp::SystemSnapshot> snaps;
        nvp::RunOptions ro;
        ro.snapshot_interval =
            std::max<Cycle>(1, cold.on_cycles / 7);
        ro.snapshot_sink = [&snaps](nvp::SystemSnapshot &&s) {
            snaps.push_back(std::move(s));
        };
        const nvp::RunResult ref_run =
            nvp::runExperiment(ref_spec, ro);
        // ...which must itself be bit-identical to the cold record
        // (modes only differ in how they integrate, not in results).
        EXPECT_EQ(resultJson(ref_run), cold_json);
        ASSERT_FALSE(snaps.empty());

        // ...resume under skip_ahead:
        for (std::size_t k = 0; k < snaps.size(); k += 2) {
            nvp::RunOptions rr;
            rr.resume = &snaps[k];
            const nvp::RunResult resumed =
                nvp::runExperiment(skip_spec, rr);
            EXPECT_EQ(resultJson(resumed), cold_json)
                << "percycle->skip_ahead at cycle "
                << snaps[k].cycle;
        }

        // And the reverse direction: capture under skip_ahead,
        // resume under percycle.
        snaps.clear();
        nvp::runExperiment(skip_spec, ro);
        ASSERT_FALSE(snaps.empty());
        nvp::RunOptions rr;
        rr.resume = &snaps[snaps.size() / 2];
        const nvp::RunResult resumed =
            nvp::runExperiment(ref_spec, rr);
        EXPECT_EQ(resultJson(resumed), cold_json)
            << "skip_ahead->percycle at cycle "
            << snaps[snaps.size() / 2].cycle;
    }
}

TEST(SnapshotCrossMode, CampaignReportIdenticalAcrossModes)
{
    // A full verification campaign (golden run + forced-outage
    // ladder + all oracles) must emit a byte-identical report
    // whichever step mode drives it — the wlcache_verify CLI's
    // --step-mode flag relies on this.
    nvp::ExperimentSpec base;
    base.design = nvp::DesignKind::WL;
    base.workload = "sha";
    base.power = energy::TraceKind::Constant;
    base.no_failure = true;
    const std::uint64_t n = nvp::runExperiment(base).on_cycles;
    ASSERT_GT(n, 1000u);

    verify::CampaignConfig cc;
    cc.base = base;
    cc.jobs = 2;
    cc.has_window = true;
    cc.window_begin = n / 3;
    cc.window_end = n / 3 + 8 * (n / 128 + 1);
    cc.window_step = n / 128 + 1;

    cc.base.tweak = [](nvp::SystemConfig &cfg) {
        cfg.step_mode = StepMode::SkipAhead;
    };
    const verify::CampaignReport skip_rep = verify::runCampaign(cc);
    cc.base.tweak = [](nvp::SystemConfig &cfg) {
        cfg.step_mode = StepMode::Percycle;
    };
    const verify::CampaignReport ref_rep = verify::runCampaign(cc);

    ASSERT_TRUE(skip_rep.golden_clean);
    std::ostringstream a, b;
    verify::writeCampaignReportJson(a, skip_rep);
    verify::writeCampaignReportJson(b, ref_rep);
    EXPECT_EQ(a.str(), b.str());
}

// --- Finiteness of the run record (energy-math satellite) ---

TEST(RunRecord, DeadTraceRecordStaysFinite)
{
    // A dead environment kills the run before the first checkpoint:
    // every derived ratio (dirty-per-checkpoint, prediction accuracy,
    // hit rates) has a zero denominator and must be guarded — one
    // inf/nan in the record poisons its result-cache entry forever
    // (written, then rejected by the strict reader on every load).
    const workloads::BuiltTrace &trace =
        workloads::getTrace("sha", 1, 42);
    const energy::PowerTrace dead(1.0, { 0.0 });
    const nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    nvp::SystemSim sim(cfg, trace, dead, /*no_failure=*/false);
    const nvp::RunResult r = sim.run();
    ASSERT_FALSE(r.completed);

    EXPECT_TRUE(std::isfinite(r.wl.prediction_accuracy));
    EXPECT_TRUE(std::isfinite(r.wl.avg_dirty_at_ckpt));
    EXPECT_TRUE(std::isfinite(r.wl.writebacks_per_on_period));
    EXPECT_TRUE(std::isfinite(r.dcache_load_hit_rate));
    EXPECT_TRUE(std::isfinite(r.dcache_store_hit_rate));

    const std::string json = resultJson(r);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    // The record must survive the strict reader (cacheable).
    std::istringstream is(json);
    nvp::RunResult back;
    std::string err;
    EXPECT_TRUE(nvp::readRunResultJson(is, back, &err)) << err;
}

// --- Campaign fast-forward acceptance ---

TEST(SnapshotCampaign, ByteIdenticalReportWithFewerCycles)
{
    // Probe the golden run length so the exhaustive window can sit
    // near the end of execution, where fast-forward pays most.
    nvp::ExperimentSpec probe;
    probe.design = nvp::DesignKind::WL;
    probe.workload = "sha";
    probe.no_failure = true;
    const std::uint64_t n = nvp::runExperiment(probe).on_cycles;
    ASSERT_GT(n, 1000u);

    verify::CampaignConfig cc;
    cc.base = probe;
    cc.base.power = energy::TraceKind::Constant;
    cc.jobs = 2;
    cc.has_window = true;
    cc.window_begin = n - n / 16;
    cc.window_end = n - n / 16 + 10 * (n / 256 + 1);
    cc.window_step = n / 256 + 1;

    const verify::CampaignReport cold = verify::runCampaign(cc);
    ASSERT_TRUE(cold.golden_clean);
    ASSERT_GE(cold.points.size(), 10u);

    cc.snapshot_interval = n / 32 + 1;
    const verify::CampaignReport fast = verify::runCampaign(cc);

    // Byte-identical report...
    std::ostringstream a, b;
    verify::writeCampaignReportJson(a, cold);
    verify::writeCampaignReportJson(b, fast);
    EXPECT_EQ(a.str(), b.str());

    // ...for >= 5x fewer simulated cycles.
    ASSERT_GT(fast.simulated_cycles, 0u);
    EXPECT_GE(cold.simulated_cycles,
              5 * fast.simulated_cycles)
        << "cold=" << cold.simulated_cycles
        << " fast=" << fast.simulated_cycles;
}

TEST(SnapshotCampaign, RungBeforeIsStrictlyBefore)
{
    verify::SnapshotLadder ladder;
    for (const Cycle c : { 100u, 200u, 300u }) {
        nvp::SystemSnapshot s;
        s.cycle = c;
        s.state = { 1 };
        ladder.push_back(
            std::make_shared<const nvp::SystemSnapshot>(std::move(s)));
    }
    EXPECT_EQ(verify::rungBefore({}, 100), nullptr);
    EXPECT_EQ(verify::rungBefore(ladder, 50), nullptr);
    // A rung AT the point is too late.
    EXPECT_EQ(verify::rungBefore(ladder, 100), nullptr);
    ASSERT_NE(verify::rungBefore(ladder, 101), nullptr);
    EXPECT_EQ(verify::rungBefore(ladder, 101)->cycle, 100u);
    EXPECT_EQ(verify::rungBefore(ladder, 300)->cycle, 200u);
    EXPECT_EQ(verify::rungBefore(ladder, 100000)->cycle, 300u);
}

TEST(SnapshotCampaign, PointOnARungResumesFromTheRungBefore)
{
    // A forced outage exactly at a recorded rung's cycle fires at the
    // end of the event before that rung was captured, so it must
    // resume from the rung before: the run record then equals the
    // cold point run's, down to when the outage struck.
    nvp::ExperimentSpec golden;
    golden.design = nvp::DesignKind::WL;
    golden.workload = "sha";
    golden.power = energy::TraceKind::Constant;
    golden.no_failure = true;
    golden.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    const std::uint64_t n = nvp::runExperiment(golden).on_cycles;
    ASSERT_GT(n, 1000u);

    verify::SnapshotLadder ladder;
    nvp::RunOptions ro;
    ro.snapshot_interval = n / 8 + 1;
    ro.snapshot_sink = [&ladder](nvp::SystemSnapshot &&s) {
        ladder.push_back(
            std::make_shared<const nvp::SystemSnapshot>(std::move(s)));
    };
    nvp::runExperiment(golden, ro);
    ASSERT_GE(ladder.size(), 3u);

    for (std::size_t k = 1; k < ladder.size(); ++k) {
        const Cycle point = ladder[k]->cycle;
        nvp::ExperimentSpec spec = golden;
        spec.tweak = [point](nvp::SystemConfig &cfg) {
            cfg.forced_outage_cycles = { point };
            cfg.validate_consistency = true;
            cfg.check_load_values = true;
        };
        const auto rung = verify::rungBefore(ladder, point);
        ASSERT_NE(rung, nullptr);
        EXPECT_LT(rung->cycle, point);
        nvp::RunOptions rr;
        rr.resume = rung.get();
        const nvp::RunResult resumed = nvp::runExperiment(spec, rr);
        const nvp::RunResult cold = nvp::runExperiment(spec);
        EXPECT_EQ(cold.forced_outages, 1u);
        EXPECT_EQ(resultJson(resumed), resultJson(cold)) << point;
    }

    // A campaign over the same rung cycles, cold and resumed, writes
    // identical reports and identical run records: the records'
    // interval rollups show when each forced outage struck, which a
    // point's on_cycles alone need not.
    verify::CampaignConfig cc;
    cc.base = golden;
    cc.jobs = 2;
    for (std::size_t k = 1; k < ladder.size(); ++k)
        cc.points.push_back(ladder[k]->cycle);
    std::string report[2], dir[2];
    for (int resumed = 0; resumed < 2; ++resumed) {
        dir[resumed] = ::testing::TempDir() + "wlcache_rung_campaign_" +
                       std::to_string(resumed);
        std::filesystem::remove_all(dir[resumed]);
        cc.cache_dir = dir[resumed];
        cc.snapshot_interval = resumed ? ro.snapshot_interval : 0;
        std::ostringstream os;
        verify::writeCampaignReportJson(os, verify::runCampaign(cc));
        report[resumed] = os.str();
    }
    EXPECT_EQ(report[0], report[1]);
    std::size_t records = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir[0])) {
        if (entry.path().extension() != ".json")
            continue;
        std::string cold, resumed;
        ASSERT_TRUE(util::readFileText(entry.path().string(), cold));
        ASSERT_TRUE(util::readFileText(
            dir[1] + "/" + entry.path().filename().string(), resumed));
        EXPECT_EQ(cold, resumed) << entry.path().filename();
        ++records;
    }
    EXPECT_EQ(records, cc.points.size() + 1);  // + the golden run
}
