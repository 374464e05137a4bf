/**
 * @file
 * Telemetry subsystem tests: TimelineBuffer ring semantics (ordering,
 * wrap-around, per-type drop counters, window extraction), the track
 * parser, the record-time CSV echo behind `wlcache_sim --debug`,
 * exporter output (CSV shape, Perfetto JSON validity), a committed
 * golden Perfetto snapshot for a tiny hand-built timeline, and live
 * whole-system runs asserting the instrumentation actually fires and
 * changes nothing.
 *
 * After an intentional exporter-format change, regenerate the golden
 * snapshot with:
 *   ./telemetry_test --update-snapshots
 * and commit tests/golden/timeline_perfetto.json with the change.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "nvp/experiment.hh"
#include "nvp/run_json.hh"
#include "telemetry/exporters.hh"
#include "telemetry/timeline.hh"
#include "util/json.hh"
#include "util/strings.hh"

using namespace wlcache;
using telemetry::EventType;
using telemetry::kAllTracks;
using telemetry::parseTracks;
using telemetry::TimelineBuffer;
using telemetry::TimelineEvent;
using telemetry::Track;
using telemetry::trackBit;

namespace {

bool g_update_snapshots = false;

const char *kGoldenPerfetto =
    WLCACHE_GOLDEN_DIR "/timeline_perfetto.json";

TEST(TimelineBuffer, RecordsInOrder)
{
    TimelineBuffer tl(16);
    EXPECT_EQ(tl.capacity(), 16u);
    EXPECT_EQ(tl.size(), 0u);

    tl.record(EventType::DqInsert, 100, "wl", 0x40, 1);
    tl.record(EventType::DqClean, 200, "wl", 0x40, 0);
    tl.record(EventType::Checkpoint, 300, "wl", 2, 30);

    EXPECT_EQ(tl.size(), 3u);
    EXPECT_EQ(tl.totalRecorded(), 3u);
    EXPECT_EQ(tl.droppedTotal(), 0u);

    const auto evs = tl.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].type, EventType::DqInsert);
    EXPECT_EQ(evs[0].cycle, 100u);
    EXPECT_EQ(evs[0].a0, 0x40u);
    EXPECT_EQ(evs[0].seq, 0u);
    EXPECT_EQ(evs[1].type, EventType::DqClean);
    EXPECT_EQ(evs[2].type, EventType::Checkpoint);
    EXPECT_EQ(evs[2].seq, 2u);
}

TEST(TimelineBuffer, WrapAroundKeepsNewestAndCountsDrops)
{
    TimelineBuffer tl(4);
    // 3 NvmWrite then 7 NvmRead: the 4 survivors must be the newest
    // 4 in order, and the drop counters must name what was lost.
    for (unsigned i = 0; i < 3; ++i)
        tl.record(EventType::NvmWrite, 10 * i, "nvm", i);
    for (unsigned i = 0; i < 7; ++i)
        tl.record(EventType::NvmRead, 100 + 10 * i, "nvm", i);

    EXPECT_EQ(tl.size(), 4u);
    EXPECT_EQ(tl.totalRecorded(), 10u);
    EXPECT_EQ(tl.droppedTotal(), 6u);
    EXPECT_EQ(tl.dropped(EventType::NvmWrite), 3u);
    EXPECT_EQ(tl.dropped(EventType::NvmRead), 3u);
    EXPECT_EQ(tl.dropped(EventType::Checkpoint), 0u);

    const auto evs = tl.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(evs[i].type, EventType::NvmRead);
        EXPECT_EQ(evs[i].seq, 6u + i);   // seqs 6..9 survive
        EXPECT_EQ(evs[i].a0, 3u + i);
    }
    // forEach must agree with snapshot.
    std::size_t n = 0;
    std::uint64_t prev_seq = 0;
    tl.forEach([&](const TimelineEvent &e) {
        if (n > 0) {
            EXPECT_GT(e.seq, prev_seq);
        }
        prev_seq = e.seq;
        ++n;
    });
    EXPECT_EQ(n, 4u);
}

TEST(TimelineBuffer, LastBeforeExtractsChronologicalWindow)
{
    TimelineBuffer tl(32);
    for (unsigned i = 0; i < 10; ++i)
        tl.record(EventType::CoreProgress, 100 * i, "core", i);

    // Window ending at cycle 550: events at 0..500, keep last 3.
    const auto w = tl.lastBefore(550, 3);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_EQ(w[0].cycle, 300u);
    EXPECT_EQ(w[1].cycle, 400u);
    EXPECT_EQ(w[2].cycle, 500u);

    // More requested than available: returns everything eligible.
    EXPECT_EQ(tl.lastBefore(150, 100).size(), 2u);
    // The boundary is inclusive: the cycle-0 event is "at or before".
    EXPECT_EQ(tl.lastBefore(0, 5).size(), 1u);
    EXPECT_TRUE(tl.lastBefore(550, 0).empty());
}

TEST(TimelineBuffer, ClearForgetsEventsAndDrops)
{
    TimelineBuffer tl(2);
    for (unsigned i = 0; i < 5; ++i)
        tl.record(EventType::Eviction, i, "cache", i);
    EXPECT_EQ(tl.droppedTotal(), 3u);
    tl.clear();
    EXPECT_EQ(tl.size(), 0u);
    EXPECT_EQ(tl.totalRecorded(), 0u);
    EXPECT_EQ(tl.droppedTotal(), 0u);
    EXPECT_EQ(tl.capacity(), 2u);
    tl.record(EventType::Eviction, 9, "cache", 9);
    EXPECT_EQ(tl.snapshot().at(0).seq, 0u);
}

TEST(TimelineMacro, NullBufferIsNoop)
{
    telemetry::TimelineBuffer *tl = nullptr;
    // The disabled path must be safe (and cost one branch at the call
    // site); arguments must not be evaluated into a crash.
    WLC_TIMELINE(tl, Checkpoint, 123, "none", 1, 2, 3.0);
    SUCCEED();
}

TEST(TimelineTaxonomy, NamesAndTracksAreTotal)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < telemetry::kNumEventTypes; ++i) {
        const auto t = static_cast<EventType>(i);
        const char *name = telemetry::eventTypeName(t);
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        names.insert(name);
        const char *track =
            telemetry::trackName(telemetry::eventTrack(t));
        ASSERT_NE(track, nullptr);
        EXPECT_FALSE(std::string(track).empty());
    }
    // Names are distinct (the CSV/report format keys on them).
    EXPECT_EQ(names.size(), telemetry::kNumEventTypes);
}

TEST(TrackParser, ParsesNamesAllAndEmptyLists)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(parseTracks("cache", mask));
    EXPECT_EQ(mask, trackBit(Track::Cache));
    EXPECT_TRUE(parseTracks("cache,power", mask));
    EXPECT_EQ(mask, trackBit(Track::Cache) | trackBit(Track::Power));
    EXPECT_TRUE(parseTracks("all", mask));
    EXPECT_EQ(mask, kAllTracks);
    EXPECT_TRUE(parseTracks("", mask));
    EXPECT_EQ(mask, 0u);
    // Case-insensitive, empty items skipped.
    EXPECT_TRUE(parseTracks("QUEUE,,nvm", mask));
    EXPECT_EQ(mask, trackBit(Track::Queue) | trackBit(Track::Nvm));
    // The inverse of trackName() for every track.
    for (std::size_t i = 0; i < telemetry::kNumTracks; ++i) {
        const auto t = static_cast<Track>(i);
        EXPECT_TRUE(parseTracks(telemetry::trackName(t), mask));
        EXPECT_EQ(mask, trackBit(t));
    }
}

TEST(TrackParser, RejectsUnknownNamesAndKeepsTheMask)
{
    const std::uint32_t before = trackBit(Track::Adapt);
    std::uint32_t mask = before;
    std::string err;
    EXPECT_FALSE(parseTracks("bogus,queue", mask, &err));
    // The mask is untouched on failure and the diagnostic names the
    // offending token plus every valid name.
    EXPECT_EQ(mask, before);
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    EXPECT_NE(err.find(telemetry::trackNameList()), std::string::npos)
        << err;
    EXPECT_FALSE(parseTracks("queue,bogus", mask, &err));
    EXPECT_EQ(mask, before);
}

/** Record a tiny deterministic timeline covering every track. */
void
recordTinyTimeline(TimelineBuffer &tl)
{
    tl.record(EventType::CapThreshold, 0, "system", 0, 0, 2.95);
    tl.record(EventType::CapThreshold, 0, "system", 1, 0, 3.3);
    tl.record(EventType::DqInsert, 120, "wl_cache", 0x100, 1);
    tl.record(EventType::NvmWrite, 140, "nvm", 0x100, 16);
    tl.record(EventType::DqClean, 200, "wl_cache", 0x100, 0);
    tl.record(EventType::DqStale, 260, "wl_cache", 0x140, 0);
    tl.record(EventType::Eviction, 300, "wl_cache", 0x200, 1);
    tl.record(EventType::CoreProgress, 350, "core", 65536);
    tl.record(EventType::OutageBegin, 400, "system", 1, 0, 2.95);
    tl.record(EventType::Checkpoint, 430, "wl_cache", 2, 30);
    tl.record(EventType::OutageEnd, 430, "system", 1, 0, 0.0015);
    tl.record(EventType::AdaptDecision, 2430, "runtime", 6, 5,
              4.3e-7);
    tl.record(EventType::Restore, 2500, "nvff", 64, 70);
    tl.record(EventType::NvmRead, 2700, "nvm", 0x200, 16);
}

TimelineBuffer
makeTinyTimeline()
{
    TimelineBuffer tl(64);
    recordTinyTimeline(tl);
    return tl;
}

/**
 * The data rows of a timeline CSV export whose track is in @p tracks,
 * concatenated: what the echo of those tracks must have streamed.
 */
std::string
csvRowsOnTracks(const std::string &csv, std::uint32_t tracks)
{
    std::string rows;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' ||
            line == telemetry::kTimelineCsvHeader)
            continue;
        std::uint32_t bit = 0;
        EXPECT_TRUE(parseTracks(util::split(line, ',').at(3), bit))
            << line;
        if (bit & tracks)
            rows += line + '\n';
    }
    return rows;
}

TEST(Exporters, CsvShape)
{
    const TimelineBuffer tl = makeTinyTimeline();
    std::ostringstream os;
    telemetry::writeTimelineCsv(os, tl);
    const std::string csv = os.str();

    std::istringstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("# schema_version=", 0), 0u) << line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "seq,cycle,type,track,comp,a0,a1,v");
    std::size_t rows = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, tl.size());
    EXPECT_NE(csv.find("dq_clean"), std::string::npos);
    EXPECT_NE(csv.find("outage_begin"), std::string::npos);
}

TEST(TimelineEcho, StreamsTheCsvRowsOfSelectedTracks)
{
    const std::uint32_t tracks =
        trackBit(Track::Queue) | trackBit(Track::Power);
    std::ostringstream echo;
    TimelineBuffer tl(64);
    tl.setEcho(&echo, tracks);
    recordTinyTimeline(tl);

    std::ostringstream csv;
    telemetry::writeTimelineCsv(csv, tl);
    EXPECT_EQ(echo.str(), csvRowsOnTracks(csv.str(), tracks));
    EXPECT_NE(echo.str().find("dq_stale"), std::string::npos);
    EXPECT_NE(echo.str().find("outage_begin"), std::string::npos);
}

TEST(TimelineEcho, UnselectedTracksStaySilent)
{
    std::ostringstream echo;
    TimelineBuffer tl(16);
    tl.setEcho(&echo, trackBit(Track::Nvm));
    tl.record(EventType::DqInsert, 10, "wl_cache", 0x40, 1);
    tl.record(EventType::Checkpoint, 20, "wl_cache", 1, 30);
    tl.record(EventType::CoreProgress, 25, "core", 65536);
    EXPECT_EQ(echo.str(), "");
    tl.record(EventType::NvmWrite, 30, "nvm", 0x40, 16);
    const std::string row = "3,30,nvm_write,nvm,nvm,64,16,0\n";
    EXPECT_EQ(echo.str(), row);

    // A null stream stops the echo; recording goes on.
    tl.setEcho(nullptr, kAllTracks);
    tl.record(EventType::NvmRead, 40, "nvm", 0x80, 16);
    EXPECT_EQ(tl.size(), 5u);
    EXPECT_EQ(echo.str(), row);
}

TEST(TimelineEcho, ReachesEventsTheRingOverwrites)
{
    std::ostringstream echo;
    TimelineBuffer tl(2);
    tl.setEcho(&echo, kAllTracks);
    for (std::uint64_t i = 0; i < 5; ++i)
        tl.record(EventType::DqClean, 100 * i, "wl_cache", i, 0);
    EXPECT_EQ(tl.size(), 2u);
    EXPECT_EQ(tl.droppedTotal(), 3u);

    std::istringstream in(echo.str());
    std::string line;
    std::uint64_t seq = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.rfind(std::to_string(seq) + "," +
                                 std::to_string(100 * seq) +
                                 ",dq_clean,",
                             0),
                  0u)
            << line;
        ++seq;
    }
    EXPECT_EQ(seq, 5u);
}

TEST(Exporters, PerfettoParsesAndCarriesSchemaVersion)
{
    const TimelineBuffer tl = makeTinyTimeline();
    std::ostringstream os;
    telemetry::ExportMeta meta;
    meta.design = "WL-Cache";
    meta.workload = "tiny";
    telemetry::writePerfettoJson(os, tl, meta);

    util::JsonValue root;
    std::string err;
    ASSERT_TRUE(util::parseJson(os.str(), root, &err)) << err;
    ASSERT_TRUE(root.isObject());

    const util::JsonValue *evs = root.get("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    EXPECT_GE(evs->items().size(), tl.size());

    const util::JsonValue *other = root.get("otherData");
    ASSERT_NE(other, nullptr);
    const util::JsonValue *ver = other->get("schema_version");
    ASSERT_NE(ver, nullptr);
    EXPECT_EQ(ver->asU64(), telemetry::kTimelineSchemaVersion);
    EXPECT_EQ(other->get("design")->asString(), "WL-Cache");
    EXPECT_EQ(other->get("events_held")->asU64(), tl.size());

    // Every instant event must carry a name and a microsecond ts.
    for (const util::JsonValue &e : evs->items()) {
        const util::JsonValue *ph = e.get("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "i") {
            EXPECT_NE(e.get("name"), nullptr);
            EXPECT_NE(e.get("ts"), nullptr);
        }
    }
}

TEST(Exporters, PerfettoMatchesGoldenSnapshot)
{
    const TimelineBuffer tl = makeTinyTimeline();
    std::ostringstream os;
    telemetry::ExportMeta meta;
    meta.design = "WL-Cache";
    meta.workload = "tiny";
    telemetry::writePerfettoJson(os, tl, meta);

    if (g_update_snapshots) {
        std::ofstream out(kGoldenPerfetto);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPerfetto;
        out << os.str();
        GTEST_SKIP() << "snapshot regenerated, commit "
                     << kGoldenPerfetto;
    }

    std::ifstream in(kGoldenPerfetto);
    ASSERT_TRUE(in.good())
        << "no golden snapshot at " << kGoldenPerfetto
        << "; run telemetry_test --update-snapshots";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(os.str(), golden.str())
        << "Perfetto export drifted from the committed snapshot. If "
           "the format change is intentional, bump "
           "telemetry::kTimelineSchemaVersion, regenerate with "
           "telemetry_test --update-snapshots, and commit the new "
           "golden file.";
}

/**
 * Live whole-system run: attaching a timeline to a WL-Cache run in a
 * harvesting environment must produce a rich event stream (the
 * acceptance bar: at least 5 distinct types including checkpoints and
 * cleanings) and fill the RunResult telemetry fields.
 */
TEST(LiveTelemetry, WlRunRecordsRichTimeline)
{
    TimelineBuffer tl(1 << 16);
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WL;
    spec.workload = "sha";
    spec.power = energy::TraceKind::RfHome;
    spec.tweak = [&tl](nvp::SystemConfig &c) { c.timeline = &tl; };

    const nvp::RunResult r = nvp::runExperiment(spec);
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.outages, 0u);

    std::set<EventType> types;
    tl.forEach([&](const TimelineEvent &e) { types.insert(e.type); });
    EXPECT_GE(types.size(), 5u);
    EXPECT_TRUE(types.count(EventType::Checkpoint));
    EXPECT_TRUE(types.count(EventType::DqClean));
    EXPECT_TRUE(types.count(EventType::DqInsert));
    EXPECT_TRUE(types.count(EventType::OutageBegin));
    EXPECT_TRUE(types.count(EventType::OutageEnd));
    EXPECT_TRUE(types.count(EventType::NvmWrite));
    EXPECT_TRUE(types.count(EventType::Restore));

    // One rollup per power-on interval: every outage closes one, the
    // graceful completion closes the last.
    EXPECT_EQ(r.intervals.size() + r.intervals_dropped,
              r.outages + 1);
    EXPECT_EQ(r.intervals.front().index, 0u);
    EXPECT_GT(r.intervals.front().instructions, 0u);
    EXPECT_GT(r.intervals.front().dirty_high_water, 0u);

    // The stats tree must be a parseable JSON object with the four
    // component groups.
    util::JsonValue stats;
    std::string err;
    ASSERT_TRUE(util::parseJson(r.stats_json, stats, &err)) << err;
    ASSERT_TRUE(stats.isObject());
    EXPECT_NE(stats.get("dcache"), nullptr);
    EXPECT_NE(stats.get("icache"), nullptr);
    EXPECT_NE(stats.get("core"), nullptr);
    EXPECT_NE(stats.get("nvm"), nullptr);
}

/**
 * A dynamic maxline raise (§4) moves Vbackup up one step of the WL
 * schedule through the same threshold function a boot uses, so every
 * raise records one Vbackup CapThreshold row carrying the raised
 * threshold. With adaptation off, every boot returns to the configured
 * maxline's threshold.
 */
TEST(LiveTelemetry, DynamicRaiseRecordsItsThreshold)
{
    std::ostringstream power_rows;  // the Power track survives ring wrap
    TimelineBuffer tl(1024);
    tl.setEcho(&power_rows, trackBit(Track::Power));
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WL;
    spec.workload = "jpegencode";
    spec.power = energy::TraceKind::Thermal;
    spec.tweak = [&tl](nvp::SystemConfig &c) {
        c.timeline = &tl;
        c.wl_dynamic = true;
        c.adaptive.enabled = false;
        c.wl.maxline = 2;
    };
    const nvp::RunResult r = nvp::runExperiment(spec);
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.wl.dyn_maxline_raises, 0u);

    const nvp::PlatformParams p =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL).platform;
    auto vbackup = [&p](unsigned maxline) {
        return std::min(p.wl_vbackup_base +
                            p.wl_vbackup_step *
                                (maxline - p.wl_threshold_anchor),
                        p.vmax);
    };
    // CSV columns: seq, cycle, type, track, comp, a0, a1, v.
    unsigned maxline = 2;
    std::uint64_t rows = 0, raises = 0;
    std::istringstream is(power_rows.str());
    for (std::string line; std::getline(is, line);) {
        const std::vector<std::string> f = util::split(line, ',');
        if (f[2] != "cap_threshold" || f[5] != "0")
            continue;  // a Von row or another power event
        ++rows;
        const double v = std::stod(f[7]);
        if (std::abs(v - vbackup(2)) < 1e-9) {
            maxline = 2;  // construction or a boot
            continue;
        }
        ++maxline;
        ++raises;
        EXPECT_NEAR(v, vbackup(maxline), 1e-9) << line;
    }
    EXPECT_EQ(raises, r.wl.dyn_maxline_raises);
    EXPECT_EQ(rows, 1 + r.outages + r.wl.dyn_maxline_raises);
}

/** The rollup cap bounds the record; overflow lands in the counter. */
TEST(LiveTelemetry, IntervalRollupCapDropsExcess)
{
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WL;
    spec.workload = "sha";
    spec.power = energy::TraceKind::RfHome;
    spec.tweak = [](nvp::SystemConfig &c) {
        c.max_interval_rollups = 2;
    };
    const nvp::RunResult r = nvp::runExperiment(spec);
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.outages + 1, 2u) << "workload too short to overflow";
    EXPECT_EQ(r.intervals.size(), 2u);
    EXPECT_EQ(r.intervals_dropped, r.outages + 1 - 2);
}

/**
 * Telemetry must be purely observational: a traced run and an
 * untraced run of the same spec produce identical results.
 */
TEST(LiveTelemetry, AttachingTimelineChangesNothing)
{
    nvp::ExperimentSpec plain;
    plain.design = nvp::DesignKind::WL;
    plain.workload = "dijkstra";
    plain.power = energy::TraceKind::RfHome;
    const nvp::RunResult a = nvp::runExperiment(plain);

    TimelineBuffer tl(4096);
    nvp::ExperimentSpec traced = plain;
    traced.tweak = [&tl](nvp::SystemConfig &c) { c.timeline = &tl; };
    const nvp::RunResult b = nvp::runExperiment(traced);

    EXPECT_GT(tl.totalRecorded(), 0u);
    EXPECT_EQ(a.on_cycles, b.on_cycles);
    EXPECT_EQ(a.outages, b.outages);
    EXPECT_EQ(a.nvm_writes, b.nvm_writes);
    EXPECT_EQ(a.meter.total(), b.meter.total());
    EXPECT_EQ(a.final_state_digest, b.final_state_digest);
    EXPECT_EQ(a.stats_json, b.stats_json);
}

/**
 * The echo is observational too: a run with every track echoed has
 * the same run record and the same buffer as one without, and it
 * streams exactly the rows of that buffer's CSV export.
 */
TEST(LiveTelemetry, EchoChangesNothing)
{
    auto tracedRun = [](TimelineBuffer &tl) {
        nvp::ExperimentSpec spec;
        spec.design = nvp::DesignKind::WL;
        spec.workload = "sha";
        spec.power = energy::TraceKind::RfHome;
        spec.tweak = [&tl](nvp::SystemConfig &c) { c.timeline = &tl; };
        std::ostringstream json;
        nvp::writeRunResultJson(json, nvp::runExperiment(spec));
        return json.str();
    };
    std::ostringstream echo;
    TimelineBuffer quiet(1 << 16);
    TimelineBuffer echoed(1 << 16);
    echoed.setEcho(&echo, kAllTracks);
    EXPECT_EQ(tracedRun(quiet), tracedRun(echoed));

    std::ostringstream quiet_csv;
    std::ostringstream echoed_csv;
    telemetry::writeTimelineCsv(quiet_csv, quiet);
    telemetry::writeTimelineCsv(echoed_csv, echoed);
    EXPECT_EQ(quiet_csv.str(), echoed_csv.str());
    ASSERT_EQ(echoed.droppedTotal(), 0u);
    EXPECT_EQ(echo.str(), csvRowsOnTracks(echoed_csv.str(), kAllTracks));
}

/**
 * Step-mode differential coverage (DESIGN.md §15): the timeline is
 * recorded at event boundaries, which both step modes hit on the
 * same cycles — so a traced skip_ahead run must record the exact
 * same event stream (cycle stamps, order, payloads) as the percycle
 * reference, and the Perfetto export of the two must be
 * byte-identical.
 */
TEST(LiveTelemetry, StepModesRecordIdenticalTimelines)
{
    auto traceRun = [](StepMode mode, TimelineBuffer &tl) {
        nvp::ExperimentSpec spec;
        spec.design = nvp::DesignKind::WL;
        spec.workload = "sha";
        spec.power = energy::TraceKind::RfHome;
        spec.tweak = [&tl, mode](nvp::SystemConfig &c) {
            c.timeline = &tl;
            c.step_mode = mode;
            c.wl_dynamic = true;  // adapt decisions stamped too
        };
        return nvp::runExperiment(spec);
    };

    TimelineBuffer tl_skip(1 << 16);
    TimelineBuffer tl_ref(1 << 16);
    const nvp::RunResult rs = traceRun(StepMode::SkipAhead, tl_skip);
    const nvp::RunResult rr = traceRun(StepMode::Percycle, tl_ref);
    ASSERT_TRUE(rs.completed);
    ASSERT_GT(rs.outages, 0u);

    std::vector<TimelineEvent> es, er;
    tl_skip.forEach(
        [&](const TimelineEvent &e) { es.push_back(e); });
    tl_ref.forEach(
        [&](const TimelineEvent &e) { er.push_back(e); });
    ASSERT_EQ(es.size(), er.size());
    EXPECT_EQ(tl_skip.droppedTotal(), tl_ref.droppedTotal());
    for (std::size_t i = 0; i < es.size(); ++i) {
        EXPECT_EQ(es[i].cycle, er[i].cycle) << "event " << i;
        EXPECT_EQ(es[i].seq, er[i].seq) << "event " << i;
        EXPECT_EQ(es[i].type, er[i].type) << "event " << i;
        EXPECT_EQ(es[i].a0, er[i].a0) << "event " << i;
        EXPECT_EQ(es[i].a1, er[i].a1) << "event " << i;
        EXPECT_EQ(es[i].v, er[i].v) << "event " << i;
        EXPECT_STREQ(es[i].comp, er[i].comp) << "event " << i;
        if (HasFailure())
            break;  // one mismatch is enough detail
    }

    // Exporter-level identity: what a perfetto viewer sees of a
    // skip_ahead run is byte-for-byte the reference trace.
    std::ostringstream pa, pb, ca, cb;
    telemetry::ExportMeta meta;
    meta.design = "WL-Cache";
    meta.workload = "sha";
    telemetry::writePerfettoJson(pa, tl_skip, meta);
    telemetry::writePerfettoJson(pb, tl_ref, meta);
    EXPECT_EQ(pa.str(), pb.str());
    telemetry::writeTimelineCsv(ca, tl_skip);
    telemetry::writeTimelineCsv(cb, tl_ref);
    EXPECT_EQ(ca.str(), cb.str());
}

/**
 * The rollup cap's boundary behaviour (which interval is the last
 * stored, how many drop) depends on exact outage cycles — it must
 * not shift with the step mode.
 */
TEST(LiveTelemetry, RollupCapBoundaryIdenticalAcrossStepModes)
{
    auto cappedRun = [](StepMode mode) {
        nvp::ExperimentSpec spec;
        spec.design = nvp::DesignKind::WL;
        spec.workload = "sha";
        spec.power = energy::TraceKind::RfHome;
        spec.tweak = [mode](nvp::SystemConfig &c) {
            c.max_interval_rollups = 2;
            c.step_mode = mode;
        };
        return nvp::runExperiment(spec);
    };
    const nvp::RunResult a = cappedRun(StepMode::SkipAhead);
    const nvp::RunResult b = cappedRun(StepMode::Percycle);
    ASSERT_GT(a.intervals_dropped, 0u);
    EXPECT_EQ(a.intervals_dropped, b.intervals_dropped);
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        EXPECT_EQ(a.intervals[i].index, b.intervals[i].index);
        EXPECT_EQ(a.intervals[i].start_cycle,
                  b.intervals[i].start_cycle);
        EXPECT_EQ(a.intervals[i].end_cycle,
                  b.intervals[i].end_cycle);
        EXPECT_EQ(a.intervals[i].instructions,
                  b.intervals[i].instructions);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-snapshots")
            g_update_snapshots = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
