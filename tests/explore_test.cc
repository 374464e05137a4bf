/**
 * @file
 * Unit tests for the design-space exploration subsystem: sweep-spec
 * parsing (every rejection names the offending axis/key with its
 * JSON path), axis expansion order and derived parameters, the
 * objective registry, the Pareto machinery, deterministic report
 * writers, and end-to-end explorations — determinism, per-point
 * scale, and warm-cache resumption.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.hh"
#include "explore/objectives.hh"
#include "explore/pareto.hh"
#include "explore/report.hh"
#include "explore/sweep_spec.hh"
#include "runner/spec_key.hh"
#include "sim/logging.hh"
#include "util/fs.hh"
#include "workloads/workloads.hh"

using namespace wlcache;
using namespace wlcache::explore;

namespace {

SweepSpec
parseOk(const std::string &text)
{
    SweepSpec spec;
    std::string err;
    EXPECT_TRUE(parseSweepSpec(text, spec, &err)) << err;
    return spec;
}

/** Parse must fail; returns the diagnostic for path assertions. */
std::string
parseErr(const std::string &text)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSweepSpec(text, spec, &err)) << text;
    EXPECT_FALSE(err.empty());
    return err;
}

std::vector<DesignPoint>
expandOk(const SweepSpec &spec)
{
    std::vector<DesignPoint> points;
    std::string err;
    EXPECT_TRUE(expandPoints(spec, points, &err)) << err;
    return points;
}

/** err must mention the JSON path and the offending name. */
void
expectDiagnostic(const std::string &err, const std::string &path,
                 const std::string &detail)
{
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_NE(err.find(detail), std::string::npos) << err;
}

} // namespace

// ---------------------------------------------------------------------
// Sweep-spec parsing.
// ---------------------------------------------------------------------

TEST(SweepSpec, ParsesFullSpec)
{
    const auto spec = parseOk(R"({
        "name": "demo",
        "base": {"workload": "sha", "power": "trace1", "scale": 2},
        "axes": [
            {"param": "design", "values": ["wl", "nvsram"]},
            {"param": "wl.maxline", "values": [2, 4, 8]}
        ],
        "points": [{"design": "replay", "wl.maxline": 4}],
        "derived": [{"param": "wl.waterline_gap",
                     "source": "wl.maxline", "mul": 0, "add": 1}],
        "objectives": ["time", "nvm_writes"]
    })");
    EXPECT_EQ(spec.name, "demo");
    ASSERT_EQ(spec.base.size(), 3u);
    EXPECT_EQ(spec.base[0].first, "workload");
    EXPECT_EQ(spec.base[0].second.text, "sha");
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[1].param, "wl.maxline");
    ASSERT_EQ(spec.axes[1].values.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.axes[1].values[2].num, 8.0);
    ASSERT_EQ(spec.points.size(), 1u);
    ASSERT_EQ(spec.derived.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.derived[0].mul, 0.0);
    EXPECT_DOUBLE_EQ(spec.derived[0].add, 1.0);
    ASSERT_EQ(spec.objectives.size(), 2u);
}

TEST(SweepSpec, RejectsInvalidJson)
{
    expectDiagnostic(parseErr("{not json"), "$:", "not valid JSON");
    expectDiagnostic(parseErr("[1, 2]"), "$:", "object");
}

TEST(SweepSpec, RejectsUnknownTopLevelKey)
{
    expectDiagnostic(parseErr(R"({"bogus": 1})"), "$.bogus",
                     "unknown sweep-spec key");
}

TEST(SweepSpec, RejectsUnknownBaseParam)
{
    expectDiagnostic(parseErr(R"({"base": {"dcache.ways": 4}})"),
                     "$.base.dcache.ways", "unknown parameter");
}

TEST(SweepSpec, RejectsBaseTypeMismatch)
{
    expectDiagnostic(
        parseErr(R"({"base": {"wl.maxline": "two"}})"),
        "$.base.wl.maxline", "wants a number");
    expectDiagnostic(parseErr(R"({"base": {"design": 7}})"),
                     "$.base.design", "wants a string");
}

TEST(SweepSpec, RejectsNonIntegerAndBelowMinimum)
{
    expectDiagnostic(parseErr(R"({"base": {"scale": 1.5}})"),
                     "$.base.scale", "wants an integer");
    expectDiagnostic(parseErr(R"({"base": {"wl.maxline": 0}})"),
                     "$.base.wl.maxline", "wants a value >= 1");
    // Integers past the destination's width must not wrap into a
    // different, valid configuration.
    expectDiagnostic(
        parseErr(R"({"base": {"wl.maxline": 4294967298}})"),
        "$.base.wl.maxline", "wants a value <= 4294967295");
    expectDiagnostic(parseErr(R"({"axes": [{"param": "scale",
                                            "values": [4294967296]}]})"),
                     "$.axes[0].values[0]", "wants a value <= 4294967295");
    expectDiagnostic(
        parseErr(R"({"base": {"workload_seed": 9007199254740994}})"),
        "$.base.workload_seed", "wants a value <= 9007199254740992");
    expectDiagnostic(
        parseErr(R"({"base": {"nvm.endurance_writes": 1e19}})"),
        "$.base.nvm.endurance_writes",
        "wants a value <= 9007199254740992");
}

TEST(SweepSpec, RejectsUnknownDesignAndWorkload)
{
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "design",
                               "values": ["wl", "sram"]}]})"),
        "$.axes[0].values[1]", "unknown design 'sram'");
    expectDiagnostic(
        parseErr(R"({"base": {"workload": "doom"}})"),
        "$.base.workload", "unknown workload 'doom'");
    // Objectives: registered, and of the kind the sweep evaluates.
    expectDiagnostic(
        parseErr(R"({"objectives": ["time", "speed"]})"),
        "$.objectives[1]", "unknown objective 'speed' (valid: time,");
    expectDiagnostic(
        parseErr(R"({"objectives": ["fleet_wear_total"]})"),
        "$.objectives[0]", "needs a \"fleet\" block");
    expectDiagnostic(
        parseErr(R"({"objectives": ["fleet_wear_total", "time"],
                     "fleet": {"nodes": 2}})"),
        "$.objectives[1]", "objective 'time' is per-run");
}

TEST(SweepSpec, RejectsBadAxes)
{
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "nope", "values": [1]}]})"),
        "$.axes[0].param", "unknown parameter 'nope'");
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "scale", "values": []}]})"),
        "$.axes[0].values", "non-empty array");
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "scale", "values": [1],
                               "step": 2}]})"),
        "$.axes[0].step", "unknown axis key");
    expectDiagnostic(
        parseErr(R"({"axes": [
            {"param": "scale", "values": [1]},
            {"param": "scale", "values": [2]}]})"),
        "$.axes[1].param", "duplicate axis");
    expectDiagnostic(
        parseErr(R"({"base": {"scale": 1},
                     "axes": [{"param": "scale", "values": [2]}]})"),
        "$.axes[0].param", "already bound in $.base");
}

TEST(SweepSpec, RejectsBadDerived)
{
    expectDiagnostic(
        parseErr(R"({"derived": [{"param": "nope",
                                  "source": "scale"}]})"),
        "$.derived[0].param", "unknown parameter");
    expectDiagnostic(
        parseErr(R"({"base": {"scale": 2},
                     "derived": [{"param": "design",
                                  "source": "scale", "mul": 2}]})"),
        "$.derived[0]", "numeric target");
    expectDiagnostic(
        parseErr(R"({"derived": [{"param": "icache.size_bytes",
                                  "source": "dcache.size_bytes"}]})"),
        "$.derived[0].source",
        "neither a base parameter nor an axis");
    expectDiagnostic(
        parseErr(R"({"base": {"dcache.size_bytes": 512,
                              "icache.size_bytes": 512},
                     "derived": [{"param": "icache.size_bytes",
                                  "source": "dcache.size_bytes"}]})"),
        "$.derived[0].param", "already bound in $.base");
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "wl.maxline",
                               "values": [2]}],
                     "derived": [{"param": "wl.maxline",
                                  "source": "wl.maxline"}]})"),
        "$.derived[0].param", "already swept by an axis");
}

TEST(SweepSpec, RejectsBadPoints)
{
    expectDiagnostic(
        parseErr(R"({"points": [{"bogus": 1}]})"),
        "$.points[0].bogus", "unknown parameter");
    // A point may not bind a derived target...
    expectDiagnostic(
        parseErr(R"({"base": {"dcache.size_bytes": 512},
                     "derived": [{"param": "icache.size_bytes",
                                  "source": "dcache.size_bytes"}],
                     "points": [{"icache.size_bytes": 256}]})"),
        "$.points[0].icache.size_bytes", "cannot be bound");
    // ...and must bind an axis-sourced derived input itself.
    expectDiagnostic(
        parseErr(R"({"axes": [{"param": "wl.maxline",
                               "values": [2, 4]}],
                     "derived": [{"param": "wl.waterline_gap",
                                  "source": "wl.maxline"}],
                     "points": [{"design": "replay"}]})"),
        "$.points[0]", "not bound for this point");
}

TEST(SweepSpec, RejectsSearchBlock)
{
    // Every point is evaluated; there is no search to configure.
    expectDiagnostic(
        parseErr(R"({"search": {"mode": "halving", "eta": 2,
                                "min_scale": 1}})"),
        "$.search", "unknown sweep-spec key");
    expectDiagnostic(
        parseErr(R"({"search": {"mode": "exhaustive"}})"),
        "$.search", "unknown sweep-spec key");
}

TEST(SweepSpec, EveryCommittedExampleParsesAndExpands)
{
    std::size_t specs = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(WLCACHE_SWEEPS_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::string text;
        ASSERT_TRUE(util::readFileText(entry.path().string(), text));
        EXPECT_FALSE(expandOk(parseOk(text)).empty());
        ++specs;
    }
    EXPECT_GE(specs, 6u);
}

// ---------------------------------------------------------------------
// Point expansion.
// ---------------------------------------------------------------------

TEST(Expansion, CartesianProductFirstAxisSlowest)
{
    const auto points = expandOk(parseOk(R"({
        "base": {"workload": "sha"},
        "axes": [
            {"param": "design", "values": ["wl", "nvsram"]},
            {"param": "wl.maxline", "values": [2, 4]}
        ]
    })"));
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].id, "design=wl;wl.maxline=2");
    EXPECT_EQ(points[1].id, "design=wl;wl.maxline=4");
    EXPECT_EQ(points[2].id, "design=nvsram;wl.maxline=2");
    EXPECT_EQ(points[3].id, "design=nvsram;wl.maxline=4");
    EXPECT_EQ(points[0].spec.design, nvp::DesignKind::WL);
    EXPECT_EQ(points[2].spec.design, nvp::DesignKind::NvsramWB);
    EXPECT_EQ(points[0].spec.workload, "sha");
}

TEST(Expansion, BaseOnlyYieldsOnePoint)
{
    const auto points = expandOk(parseOk(
        R"({"base": {"workload": "qsort", "power": "none"}})"));
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].id, "base");
    EXPECT_EQ(points[0].spec.workload, "qsort");
    EXPECT_TRUE(points[0].spec.no_failure);
}

TEST(Expansion, ConfigParamsApplyThroughResolvedConfig)
{
    const auto points = expandOk(parseOk(R"({
        "base": {"design": "wl", "adaptive.enabled": false},
        "axes": [{"param": "wl.maxline", "values": [3, 7]}]
    })"));
    ASSERT_EQ(points.size(), 2u);
    const auto cfg0 = nvp::resolveConfig(points[0].spec);
    const auto cfg1 = nvp::resolveConfig(points[1].spec);
    EXPECT_EQ(cfg0.wl.maxline, 3u);
    EXPECT_EQ(cfg1.wl.maxline, 7u);
    EXPECT_FALSE(cfg0.adaptive.enabled);
    // Config-level knobs flow into the content-addressed key.
    EXPECT_NE(runner::specKey(points[0].spec),
              runner::specKey(points[1].spec));
}

TEST(Expansion, DerivedParamsFollowTheirSource)
{
    const auto points = expandOk(parseOk(R"({
        "axes": [{"param": "dcache.size_bytes",
                  "values": [256, 1024]}],
        "derived": [
            {"param": "icache.size_bytes",
             "source": "dcache.size_bytes"},
            {"param": "wl.dq_size", "source": "dcache.size_bytes",
             "mul": 0.03125, "add": 2}
        ]
    })"));
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].id,
              "dcache.size_bytes=256;icache.size_bytes=256;"
              "wl.dq_size=10");
    const auto cfg = nvp::resolveConfig(points[1].spec);
    EXPECT_EQ(cfg.icache.size_bytes, 1024u);
    EXPECT_EQ(cfg.wl.dq_size, 34u); // 1024/32 + 2
}

TEST(Expansion, DerivedViolatingConstraintsFailsCleanly)
{
    // mul 0 + add 0 lands below wl.maxline's minimum of 1.
    const auto spec = parseOk(R"({
        "axes": [{"param": "wl.waterline_gap", "values": [1]}],
        "derived": [{"param": "wl.maxline",
                     "source": "wl.waterline_gap", "mul": 0}]
    })");
    std::vector<DesignPoint> points;
    std::string err;
    EXPECT_FALSE(expandPoints(spec, points, &err));
    expectDiagnostic(err, "wl.maxline", ">= 1");
}

TEST(Expansion, ExplicitPointsAppendAndOverrideBase)
{
    const auto points = expandOk(parseOk(R"({
        "base": {"design": "wl", "scale": 1},
        "axes": [{"param": "wl.maxline", "values": [2]}],
        "points": [{"design": "replay", "scale": 3}]
    })"));
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[1].id, "design=replay;scale=3");
    EXPECT_EQ(points[1].spec.design, nvp::DesignKind::Replay);
    EXPECT_EQ(points[1].spec.scale, 3u);
    EXPECT_EQ(points[0].spec.scale, 1u);
}

TEST(Expansion, ListParamsCoversEveryRegisteredName)
{
    const auto params = listParams();
    EXPECT_GE(params.size(), 20u);
    for (const auto &[name, help] : params) {
        EXPECT_TRUE(isKnownParam(name)) << name;
        EXPECT_FALSE(help.empty()) << name;
    }
    EXPECT_FALSE(isKnownParam("dcache.ways"));
}

// ---------------------------------------------------------------------
// Objectives.
// ---------------------------------------------------------------------

TEST(Objectives, RegistryLookup)
{
    EXPECT_NE(findObjective("time"), nullptr);
    EXPECT_NE(findObjective("ckpt_reserve"), nullptr);
    EXPECT_NE(findObjective("hw_area"), nullptr);
    EXPECT_EQ(findObjective("bogus"), nullptr);
}

TEST(Objectives, CheckpointReserveFollowsMaxlineSchedule)
{
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WL;
    auto cfg = nvp::resolveConfig(spec);

    cfg.wl.maxline = 2;
    const double at2 = checkpointReserveJ(cfg);
    cfg.wl.maxline = 8;
    const double at8 = checkpointReserveJ(cfg);
    // A larger dirty bound needs a higher Vbackup, hence a larger
    // reserve — the paper's central trade-off, made explicit.
    EXPECT_GT(at8, at2);
    EXPECT_GT(at2, 0.0);

    // Exact at the anchor: 0.5 C (Vb^2 - Vmin^2) with the base Vb.
    cfg.wl.maxline = cfg.platform.wl_threshold_anchor;
    const double vb = cfg.platform.wl_vbackup_base;
    const double expected =
        0.5 * cfg.platform.capacitance_f *
        (vb * vb - cfg.platform.vmin * cfg.platform.vmin);
    EXPECT_DOUBLE_EQ(checkpointReserveJ(cfg), expected);

    // Static-threshold designs reserve from the platform Vbackup.
    nvp::ExperimentSpec wt;
    wt.design = nvp::DesignKind::VCacheWT;
    const auto wtcfg = nvp::resolveConfig(wt);
    const double pvb = wtcfg.platform.vbackup;
    EXPECT_DOUBLE_EQ(
        checkpointReserveJ(wtcfg),
        0.5 * wtcfg.platform.capacitance_f *
            (pvb * pvb - wtcfg.platform.vmin * wtcfg.platform.vmin));
}

/** The objective reads the reserve the simulator sized, per design. */
TEST(Objectives, CheckpointReserveEqualsSimulatorReserve)
{
    const workloads::BuiltTrace no_trace;
    const energy::PowerTrace no_power;
    struct Case
    {
        nvp::DesignKind design;
        unsigned maxline;
    };
    const Case cases[] = {
        { nvp::DesignKind::WL, 2 },
        { nvp::DesignKind::WL, 8 },
        { nvp::DesignKind::NvsramWB, 6 },
        { nvp::DesignKind::NvsramPractical, 6 },
    };
    for (const Case &c : cases) {
        for (const double farads : { 1e-6, 1e-5 }) {
            nvp::ExperimentSpec spec;
            spec.design = c.design;
            auto cfg = nvp::resolveConfig(spec);
            cfg.wl.maxline = c.maxline;
            cfg.platform.capacitance_f = farads;
            const nvp::SystemSim sim(cfg, no_trace, no_power, true);
            EXPECT_DOUBLE_EQ(checkpointReserveJ(cfg),
                             sim.checkpointReserveJ())
                << nvp::designKindName(c.design) << " maxline "
                << c.maxline << " at " << farads << " F";
        }
    }

    // NVSRAM-WB's array-scaled Vbackup bottoms out at 2.85 V on a
    // 10 uF capacitor: about 1.41 uJ, not the 8.85 uJ the preset
    // 3.1 V would set aside.
    nvp::ExperimentSpec nv;
    nv.design = nvp::DesignKind::NvsramWB;
    auto nvcfg = nvp::resolveConfig(nv);
    nvcfg.platform.capacitance_f = 1e-5;
    EXPECT_NEAR(checkpointReserveJ(nvcfg),
                0.5e-5 * (2.85 * 2.85 - 2.8 * 2.8), 1e-12);
}

TEST(Objectives, HardwareAreaScalesWithStructures)
{
    nvp::ExperimentSpec wl;
    wl.design = nvp::DesignKind::WL;
    const auto wl_cfg = nvp::resolveConfig(wl);
    const double wl_area = hardwareAreaMm2(wl_cfg);
    EXPECT_GT(wl_area, 0.0);

    // No cache, no area.
    nvp::ExperimentSpec nocache;
    nocache.design = nvp::DesignKind::NoCache;
    EXPECT_DOUBLE_EQ(hardwareAreaMm2(nvp::resolveConfig(nocache)),
                     0.0);

    // The DirtyQueue costs silicon on top of equal-size caches.
    auto no_dq = wl_cfg;
    no_dq.design = nvp::DesignKind::NvsramWB;
    EXPECT_GT(wl_area, hardwareAreaMm2(no_dq));

    // Bigger caches, more area.
    auto big = wl_cfg;
    big.dcache.size_bytes *= 4;
    EXPECT_GT(hardwareAreaMm2(big), wl_area);
}

TEST(Objectives, TimeExtrapolatesUnfinishedRuns)
{
    nvp::ExperimentSpec spec;
    spec.workload = "sha";
    const auto &trace = workloads::getTrace("sha", 1);
    const auto cfg = nvp::resolveConfig(spec);

    nvp::RunResult half;
    half.completed = false;
    half.total_seconds = 1.0;
    half.instructions = trace.totalInstructions() / 2;
    const auto objs = evalObjectives({ "time" }, half, cfg, spec);
    ASSERT_EQ(objs.size(), 1u);
    EXPECT_NEAR(objs[0], 2.0, 0.05);

    // No progress at all: the fixed terrible number, not inf/NaN.
    nvp::RunResult stuck;
    stuck.total_seconds = 1.0;
    EXPECT_DOUBLE_EQ(
        evalObjectives({ "time" }, stuck, cfg, spec)[0], 1.0e6);

    // Finished runs report wall-clock untouched.
    nvp::RunResult done;
    done.completed = true;
    done.total_seconds = 0.25;
    EXPECT_DOUBLE_EQ(
        evalObjectives({ "time" }, done, cfg, spec)[0], 0.25);
}

// ---------------------------------------------------------------------
// Pareto machinery.
// ---------------------------------------------------------------------

TEST(Pareto, Dominance)
{
    EXPECT_TRUE(dominates({ 1, 1 }, { 2, 2 }));
    EXPECT_TRUE(dominates({ 1, 2 }, { 1, 3 }));
    EXPECT_FALSE(dominates({ 1, 3 }, { 2, 2 }));
    EXPECT_FALSE(dominates({ 1, 1 }, { 1, 1 })); // equal: neither
    EXPECT_FALSE(dominates({ 2, 2 }, { 1, 1 }));
}

TEST(Pareto, FrontierKeepsTiesAndOrdersDeterministically)
{
    const std::vector<std::vector<double>> objs = {
        { 3.0, 1.0 }, // frontier
        { 1.0, 3.0 }, // frontier
        { 2.0, 2.0 }, // frontier (incomparable with both)
        { 3.0, 3.0 }, // dominated by {2,2}
        { 1.0, 3.0 }, // exact tie with #1: kept
    };
    const std::vector<std::string> ids = { "c", "b", "d", "x", "a" };
    const auto front = paretoFrontier(objs, ids);
    ASSERT_EQ(front.size(), 4u);
    // Sorted by objective vector, id breaking the exact tie:
    // (1,3)"a" < (1,3)"b" < (2,2)"d" < (3,1)"c".
    EXPECT_EQ(front[0], 4u);
    EXPECT_EQ(front[1], 1u);
    EXPECT_EQ(front[2], 2u);
    EXPECT_EQ(front[3], 0u);
}

// ---------------------------------------------------------------------
// Report writers (synthetic report: no simulation involved).
// ---------------------------------------------------------------------

namespace {

ExploreReport
syntheticReport()
{
    ExploreReport r;
    r.name = "synthetic";
    r.objective_names = { "time", "nvm_writes" };
    r.expanded_points = 2;

    PointOutcome a;
    a.point.id = "design=wl";
    a.point.params = { { "design", strValue("wl") },
                       { "wl.maxline", numValue(4) } };
    a.objectives = { 0.5, 100.0 };
    a.run_key = "aaaa";
    a.result.completed = true;
    a.on_frontier = true;

    PointOutcome b;
    b.point.id = "design=nvsram";
    b.point.params = { { "design", strValue("nvsram") } };
    b.objectives = { 1.0, 10.0 };
    b.run_key = "bbbb";
    b.result.completed = false;
    b.on_frontier = true;

    r.outcomes = { a, b };
    r.frontier = { 0, 1 };
    return r;
}

} // namespace

TEST(Report, CsvUnionsParamColumns)
{
    std::ostringstream os;
    writeCsv(os, syntheticReport());
    const std::string csv = os.str();
    std::istringstream is(csv);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "id,design,wl.maxline,time,nvm_writes,frontier,"
                    "completed,run_key");
    std::getline(is, line);
    EXPECT_EQ(line, "design=wl,wl,4,0.5,100,1,1,aaaa");
    std::getline(is, line);
    // nvsram never binds wl.maxline: '-' placeholder, DNF noted.
    EXPECT_EQ(line, "design=nvsram,nvsram,-,1,10,1,0,bbbb");
}

TEST(Report, MarkdownPointsAtRunRecords)
{
    std::ostringstream with_dir;
    writeFrontierMarkdown(with_dir, syntheticReport(), "cache");
    EXPECT_NE(with_dir.str().find("`cache/aaaa.json`"),
              std::string::npos);
    EXPECT_NE(with_dir.str().find("# Exploration frontier: "
                                  "synthetic"),
              std::string::npos);
    EXPECT_NE(with_dir.str().find("- frontier: 2 points"),
              std::string::npos);

    // Without a cache dir the bare key still identifies the run.
    std::ostringstream bare;
    writeFrontierMarkdown(bare, syntheticReport(), "");
    EXPECT_NE(bare.str().find("`aaaa`"), std::string::npos);
    EXPECT_EQ(bare.str().find(".json"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end explorations (tiny sweeps, real simulations).
// ---------------------------------------------------------------------

namespace {

bool
runSweep(const SweepSpec &sweep, ExploreReport &out,
        const std::string &cache_dir = "")
{
    ExploreConfig cfg;
    cfg.sweep = sweep;
    cfg.jobs = 2;
    cfg.cache_dir = cache_dir;
    std::string err;
    const bool ok = runExploration(cfg, out, &err);
    EXPECT_TRUE(ok) << err;
    return ok;
}

std::string
renderCsv(const ExploreReport &r)
{
    std::ostringstream os;
    writeCsv(os, r);
    return os.str();
}

std::string
renderMd(const ExploreReport &r)
{
    std::ostringstream os;
    writeFrontierMarkdown(os, r, "");
    return os.str();
}

} // namespace

TEST(Explorer, RejectsBadInputsWithClearErrors)
{
    ExploreConfig cfg;
    cfg.sweep = parseOk(R"({"base": {"workload": "sha"}})");
    cfg.objectives = { "bogus" };
    ExploreReport report;
    std::string err;
    EXPECT_FALSE(runExploration(cfg, report, &err));
    EXPECT_NE(err.find("unknown objective 'bogus'"),
              std::string::npos);

    // An override must match the sweep's kind: fleet objectives need
    // a fleet block, which takes no per-run objectives.
    cfg.objectives = { "fleet_p99_progress" };
    EXPECT_FALSE(runExploration(cfg, report, &err));
    EXPECT_NE(err.find("needs a \"fleet\" block"), std::string::npos);
    ExploreConfig fleet;
    fleet.sweep = parseOk(R"({"base": {"workload": "sha"},
                              "fleet": {"nodes": 2}})");
    fleet.objectives = { "time" };
    EXPECT_FALSE(runExploration(fleet, report, &err));
    EXPECT_NE(err.find("objective 'time' is per-run"), std::string::npos);
    // A DirtyQueue too small for the WL preset's adaptive range fails
    // before any run, naming the point, instead of panicking mid-run.
    ExploreConfig small_dq;
    small_dq.sweep = parseOk(R"({"name": "x",
        "base": {"design": "wl", "wl.maxline": 2, "wl.dq_size": 4,
                 "power": "trace1", "workload": "qsort"},
        "objectives": ["time"]})");
    EXPECT_FALSE(runExploration(small_dq, report, &err));
    expectDiagnostic(err, "point 'base'",
                     "adaptive.maxline_max 6 exceeds wl.dq_size 4");
}

TEST(Explorer, ExhaustiveIsDeterministic)
{
    const auto sweep = parseOk(R"({
        "name": "tiny",
        "base": {"workload": "qsort", "power": "trace1"},
        "axes": [{"param": "design", "values": ["wl", "nvsram"]}],
        "objectives": ["time", "nvm_writes", "hw_area"]
    })");
    ExploreReport first, second;
    ASSERT_TRUE(runSweep(sweep, first));
    ASSERT_TRUE(runSweep(sweep, second));

    ASSERT_EQ(first.outcomes.size(), 2u);
    EXPECT_EQ(first.outcomes[0].point.id, "design=wl");
    EXPECT_FALSE(first.frontier.empty());
    for (const auto &o : first.outcomes) {
        ASSERT_EQ(o.objectives.size(), 3u);
        EXPECT_EQ(o.run_key, runner::specKey(o.point.spec));
    }
    // Two cold runs render byte-identical reports.
    EXPECT_EQ(renderCsv(first), renderCsv(second));
    EXPECT_EQ(renderMd(first), renderMd(second));
}

TEST(Explorer, ExhaustiveRunsEachPointAtItsOwnScale)
{
    const auto sweep = parseOk(R"({
        "base": {"workload": "sha", "power": "trace1"},
        "axes": [{"param": "scale", "values": [1, 2]}]
    })");
    ExploreReport report;
    ASSERT_TRUE(runSweep(sweep, report));
    ASSERT_EQ(report.outcomes.size(), 2u);
    for (const auto &o : report.outcomes)
        EXPECT_EQ(o.run_key, runner::specKey(o.point.spec));
    EXPECT_EQ(report.outcomes[1].point.spec.scale, 2u);
    EXPECT_NE(report.outcomes[0].run_key, report.outcomes[1].run_key);
    // The header names the range of scales, not the first point's.
    EXPECT_NE(renderMd(report).find("2 evaluated at full scale (x1..x2)"),
              std::string::npos)
        << renderMd(report);
}

TEST(Explorer, WarmCacheExecutesNothing)
{
    // A stale cache from a previous test run would make the "cold"
    // leg warm; start from an empty directory every time.
    const std::string dir =
        ::testing::TempDir() + "wlcache_explore_warm";
    std::filesystem::remove_all(dir);
    const auto sweep = parseOk(R"({
        "name": "warm",
        "base": {"workload": "qsort", "power": "trace1"},
        "axes": [{"param": "design", "values": ["wl", "wt"]}]
    })");

    ExploreReport cold, warm;
    ASSERT_TRUE(runSweep(sweep, cold, dir));
    EXPECT_EQ(cold.executed, 2u);
    ASSERT_TRUE(runSweep(sweep, warm, dir));
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cache_hits, 2u);

    // Cache-served results reproduce the reports byte for byte.
    EXPECT_EQ(renderCsv(cold), renderCsv(warm));
    EXPECT_EQ(renderMd(cold), renderMd(warm));
}
