/**
 * @file
 * Byte pins for every persisted record format. For a few specs that
 * between them exercise every configuration knob, every result field
 * and every design name, this test renders
 *   - the spec-key text (schema prefix + dumpConfigKey),
 *   - the snapshot compat key and a digest of the snapshot bytes taken
 *     mid-run (which include the "RES " result section), and
 *   - the full run-record JSON,
 * plus one mid-run snapshot digest per design, and compares the
 * rendering with tests/golden/schema.txt. Existing result caches stay
 * valid exactly when these bytes do not move, so a diff here is a
 * compatibility break, not a cosmetic change.
 *
 * Regenerate only together with a kResultSchemaVersion /
 * kRunRecordVersion / SystemSnapshot::kFormatVersion bump:
 *   ./schema_golden_test --update-golden
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/sweep_spec.hh"
#include "mem/device/tech_profile.hh"
#include "nvp/experiment.hh"
#include "nvp/run_json.hh"
#include "runner/spec_key.hh"
#include "util/strings.hh"

using namespace wlcache;

namespace {

bool g_update_golden = false;

const char *kGoldenFile = WLCACHE_GOLDEN_DIR "/schema.txt";

struct NamedSpec
{
    std::string name;
    nvp::ExperimentSpec spec;
};

/** Expand a one-point sweep spec (exercises the sweep registry). */
nvp::ExperimentSpec
fromSweep(const std::string &json)
{
    explore::SweepSpec sweep;
    std::vector<explore::DesignPoint> points;
    std::string err;
    EXPECT_TRUE(explore::parseSweepSpec(json, sweep, &err)) << err;
    EXPECT_TRUE(explore::expandPoints(sweep, points, &err)) << err;
    EXPECT_EQ(points.size(), 1u);
    return points.empty() ? nvp::ExperimentSpec{} : points[0].spec;
}

std::vector<NamedSpec>
specs()
{
    std::vector<NamedSpec> out;

    out.push_back({ "default-wl", nvp::ExperimentSpec{} });

    // Every sweepable parameter bound to a non-default value.
    out.push_back({ "nvsram-all-params", fromSweep(R"({"base": {
        "design": "nvsram", "workload": "sha", "power": "trace2",
        "scale": 2, "workload_seed": 43, "power_seed": 8,
        "nvm.tech": "stt-ram",
        "dcache.size_bytes": 4096, "dcache.assoc": 4,
        "dcache.line_bytes": 32, "dcache.repl": "fifo",
        "icache.size_bytes": 4096,
        "wl.maxline": 4, "wl.waterline_gap": 2, "wl.dq_size": 10,
        "wl.dq_repl": "lru",
        "adaptive.enabled": false, "adaptive.maxline_min": 3,
        "adaptive.maxline_max": 7, "wl_dynamic": true,
        "platform.capacitance_f": 2.2e-6, "platform.vbackup": 3.15,
        "platform.von": 3.45, "max_outages": 500000,
        "nvm.model": "banked", "nvm.banks": 8, "nvm.queue_depth": 6,
        "nvm.row_bytes": 512, "nvm.track_wear": true,
        "nvm.endurance_writes": 5000000, "nvm.wear_scheme": "rotate",
        "nvm.rotate_period_writes": 1024, "nvm.hybrid_lines": 8,
        "nvm.hybrid_promote_writes": 3,
        "log.region_lines": 128, "log.segment_bytes": 2048,
        "log.compaction_watermark": 0.6}})") });

    // WL-Log on a banked flash device with every wear feature and the
    // resume-neutral verification knobs set.
    nvp::ExperimentSpec wllog;
    wllog.design = nvp::DesignKind::WLLog;
    wllog.workload = "qsort";
    wllog.tweak = [](nvp::SystemConfig &c) {
        mem::applyTechProfile(c.nvm, *mem::findTechProfile("flash"));
        c.nvm.model = mem::NvmModel::BankedQueue;
        c.nvm.track_wear = true;
        c.nvm.wear_scheme = mem::NvmWearScheme::Rotate;
        c.nvm.rotate_period_writes = 256;
        c.nvm.hybrid_lines = 16;
        c.forced_outage_cycles = { 20000, 150000, 400000 };
        c.validate_consistency = true;
        c.check_load_values = true;
        c.inject_register_skip = true;
        c.max_outages = 100000;
    };
    out.push_back({ "wllog-flash-wear-forced", wllog });

    nvp::ExperimentSpec percycle;
    percycle.design = nvp::DesignKind::Replay;
    percycle.power = energy::TraceKind::RfMementos;
    percycle.tweak = [](nvp::SystemConfig &c) {
        c.step_mode = StepMode::Percycle;
        c.inject_checkpoint_skip = true;
        c.max_interval_rollups = 3;
    };
    out.push_back({ "replay-percycle", percycle });
    return out;
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    return util::fnv1a128Hex(bytes.data(), bytes.size());
}

/**
 * The snapshot @p spec's run takes at the boundary before trace event
 * @p event (a run of @p on_cycles cycles). Interval captures land on
 * cycle multiples, so narrow in: each pass resumes from the latest
 * capture at or before @p event with a 64x finer interval and stops
 * once past it; an interval of 1 captures every boundary.
 */
nvp::SystemSnapshot
snapshotAtEvent(const nvp::ExperimentSpec &spec, Cycle on_cycles,
                std::uint64_t event)
{
    nvp::SystemSnapshot best;
    for (Cycle interval = std::max<Cycle>(1, on_cycles / 64);;
         interval = std::max<Cycle>(1, interval / 64)) {
        const nvp::SystemSnapshot from = best;
        std::atomic<bool> past{ false };
        nvp::RunOptions ro;
        ro.resume = from.valid() ? &from : nullptr;
        ro.cut_request = &past;
        ro.snapshot_interval = interval;
        ro.snapshot_sink = [&](nvp::SystemSnapshot &&s) {
            if (s.event_index <= event)
                best = std::move(s);
            else
                past = true;
        };
        nvp::runExperiment(spec, ro);
        if ((best.valid() && best.event_index == event) || interval == 1)
            return best;
    }
}

std::string
runJson(const nvp::RunResult &r)
{
    std::ostringstream os;
    nvp::writeRunResultJson(os, r);
    return os.str();
}

/** Render every pinned byte stream for one spec. */
void
renderSpec(std::ostream &os, const NamedSpec &ns)
{
    const nvp::RunResult cold = nvp::runExperiment(ns.spec);
    const std::string json = runJson(cold);

    const std::uint64_t mid = cold.trace_events / 2;
    const nvp::SystemSnapshot cut =
        snapshotAtEvent(ns.spec, cold.on_cycles, mid);
    EXPECT_EQ(cut.event_index, mid) << ns.name;

    os << "=== " << ns.name << "\n--- spec_key_text\n"
       << runner::specKeyText(ns.spec) << "--- snapshot at event "
       << cut.event_index << " cycle " << cut.cycle << "\ncompat_key "
       << cut.compat_key << "\nstate " << hex(cut.state) << " ("
       << cut.state.size() << " bytes)\n--- run_json\n"
       << json;

    // Round trips the golden cannot see on its own: the JSON reader
    // and the RES reader must restore every field they wrote.
    nvp::RunResult back;
    std::istringstream is(json);
    std::string err;
    ASSERT_TRUE(nvp::readRunResultJson(is, back, &err)) << err;
    EXPECT_EQ(runJson(back), json) << ns.name;

    nvp::RunOptions resume_opts;
    resume_opts.resume = &cut;
    EXPECT_EQ(runJson(nvp::runExperiment(ns.spec, resume_opts)), json)
        << ns.name << ": resumed run differs from the cold run";
}

/** Every design short name and alias the sweep registry accepts. */
void
renderDesigns(std::ostream &os)
{
    const std::vector<std::string> names = {
        "nocache", "wt", "vcache-wt", "nvcache", "nvc", "nvsram",
        "nvsram-full", "nvsram-practical", "nvsram-prac", "replay",
        "wtbuf", "wt-buffer", "wl", "wllog", "wl-log", "WL",
    };
    os << "=== designs\n";
    for (const std::string &n : names) {
        const nvp::ExperimentSpec s =
            fromSweep(R"({"base": {"design": ")" + n + R"("}})");
        os << n << ' ' << nvp::designKindName(s.design) << ' '
           << runner::specKey(s) << '\n';
    }
}

/**
 * One mid-run snapshot digest per design, so every design's own
 * serialized state (and the oracle's "CHK " section) is pinned.
 */
void
renderSnapshots(std::ostream &os)
{
    os << "=== snapshots\n";
    for (int k = 0; k <= static_cast<int>(nvp::DesignKind::WLLog); ++k) {
        nvp::ExperimentSpec spec;
        spec.design = static_cast<nvp::DesignKind>(k);
        spec.workload = "sha";
        spec.power = energy::TraceKind::RfHome;
        spec.tweak = [](nvp::SystemConfig &c) {
            c.validate_consistency = true;
        };
        const nvp::RunResult cold = nvp::runExperiment(spec);

        const std::uint64_t mid = cold.trace_events / 2;
        const nvp::SystemSnapshot cut =
            snapshotAtEvent(spec, cold.on_cycles, mid);
        EXPECT_EQ(cut.event_index, mid) << nvp::designKindName(spec.design);

        os << nvp::designKindName(spec.design) << " event "
           << cut.event_index << " cycle " << cut.cycle << " state "
           << hex(cut.state) << " (" << cut.state.size() << " bytes)\n";
    }
}

std::string
render()
{
    std::ostringstream os;
    os << "# Pinned record bytes (schema_golden_test --update-golden).\n";
    for (const NamedSpec &ns : specs())
        renderSpec(os, ns);
    renderDesigns(os);
    renderSnapshots(os);
    return os.str();
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(SchemaGolden, RecordBytesMatchGolden)
{
    const std::string now = render();
    if (g_update_golden) {
        std::ofstream out(kGoldenFile);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
        out << now;
        GTEST_SKIP() << "golden regenerated, commit " << kGoldenFile;
    }
    const std::string golden = readFile(kGoldenFile);
    ASSERT_FALSE(golden.empty()) << "no golden at " << kGoldenFile;
    if (now == golden)
        return;

    std::istringstream a(golden), b(now);
    std::string la, lb;
    for (unsigned line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        if (!ga && !gb)
            break;
        if (!ga || !gb || la != lb) {
            ADD_FAILURE() << kGoldenFile << ":" << line
                          << " differs:\n  golden: " << la
                          << "\n  now:    " << lb;
            break;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            g_update_golden = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
