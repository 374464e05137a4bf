/**
 * @file
 * Unit tests for fleet explorations (a sweep with a "fleet" block):
 * deterministic per-node trace derivation (same inputs bit-identical,
 * different node ids decorrelated, byte-exact save/load round trips),
 * the nearest-rank percentile against a hand-computed oracle,
 * aggregation that is independent of worker completion order with
 * N=0/N=1 guarded, fleet-block parsing diagnostics, warm-cache fleet
 * re-runs executing zero jobs, and a fleet whose Pareto winner
 * differs from the single-node winner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "explore/explorer.hh"
#include "explore/report.hh"
#include "explore/sweep_spec.hh"
#include "sim/logging.hh"
#include "util/strings.hh"

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

/** Parse must fail; returns the diagnostic for assertions. */
std::string
parseErr(const std::string &text)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSweepSpec(text, spec, &err)) << text;
    EXPECT_FALSE(err.empty());
    return err;
}

/** A synthetic per-node result with just the aggregated fields set. */
NodeResult
makeNode(std::uint64_t node, std::uint64_t instructions,
         double seconds, std::uint64_t nvm_writes = 0,
         bool completed = true)
{
    NodeResult n;
    n.node = node;
    n.workload = "synthetic";
    n.result.instructions = instructions;
    n.result.total_seconds = seconds;
    n.result.nvm_writes = nvm_writes;
    n.result.completed = completed;
    return n;
}

std::vector<double>
aggregate(std::vector<NodeResult> nodes,
          const std::vector<std::string> &objectives,
          const FleetBlock &spec = {})
{
    PointOutcome out;
    out.nodes = std::move(nodes);
    aggregatePoint(out, spec, objectives);
    return out.objectives;
}

std::string
saveBytes(const energy::PowerTrace &t)
{
    std::ostringstream os;
    t.save(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Per-node trace derivation.
// ---------------------------------------------------------------------

TEST(DeriveNodeTrace, DeterministicAndDecorrelated)
{
    const auto base =
        energy::makeTrace(energy::TraceKind::RfOffice);
    ASSERT_GT(base.numSamples(), 0u);

    // Same (base, node, jitter) derives bit-identical samples.
    const auto a = energy::deriveNodeTrace(base, 3, 0.25);
    const auto b = energy::deriveNodeTrace(base, 3, 0.25);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.samplePeriod(), b.samplePeriod());

    // Different node ids decorrelate.
    const auto c = energy::deriveNodeTrace(base, 4, 0.25);
    EXPECT_NE(a.samples(), c.samples());

    // The gain is multiplicative on the shared envelope: a zero
    // sample stays zero for every node (same burst/idle structure).
    const std::vector<double> base_w = base.samples();
    const std::vector<double> a_w = a.samples();
    for (std::size_t i = 0; i < base.numSamples(); ++i) {
        if (base_w[i] == 0.0) {
            EXPECT_EQ(a_w[i], 0.0);
        }
    }

    // The base itself is never mutated.
    const auto base2 =
        energy::makeTrace(energy::TraceKind::RfOffice);
    EXPECT_EQ(base.samples(), base2.samples());
}

TEST(DeriveNodeTrace, JitterZeroReturnsBaseUnchanged)
{
    const auto base = energy::makeTrace(energy::TraceKind::RfHome);
    const auto derived = energy::deriveNodeTrace(base, 7, 0.0);
    EXPECT_EQ(base.samples(), derived.samples());
    EXPECT_EQ(base.samplePeriod(), derived.samplePeriod());
}

TEST(DeriveNodeTrace, SaveLoadRoundTripsByteIdentically)
{
    // save() must emit full precision: a derived trace written by
    // power_trace_tool and read back has to reproduce the identical
    // waveform (and therefore the identical run), byte for byte.
    const auto base =
        energy::makeTrace(energy::TraceKind::RfOffice);
    const auto derived = energy::deriveNodeTrace(base, 11, 0.4);

    const std::string first = saveBytes(derived);
    std::istringstream in(first);
    const auto reloaded = energy::PowerTrace::load(in);
    EXPECT_EQ(derived.samples(), reloaded.samples());
    EXPECT_EQ(derived.samplePeriod(), reloaded.samplePeriod());
    EXPECT_EQ(first, saveBytes(reloaded));
}

TEST(DeriveNodeTrace, SampleStreamsMatchPinnedDigests)
{
    // fnv1a128 of node 3's samples at jitter 0.25 over the traces
    // energy_test pins, as the eager derivation wrote them.
    struct Pin
    {
        energy::TraceKind kind;
        std::uint64_t seed;
        double duration_s;
        const char *digest;
    };
    static const Pin pins[] = {
        { energy::TraceKind::RfHome, 1, 2,
          "c08b7916bd0521f908c863bd055632bb" },
        { energy::TraceKind::RfHome, 1, 0.5,
          "6e025c3bfe748cf3e4094345ffe6fb5d" },
        { energy::TraceKind::RfHome, 1, 0.0013,
          "09461002deb4f84a914b26e38611a2ae" },
        { energy::TraceKind::RfHome, 7, 2,
          "bb5848df7be076972eed7b32c9eab821" },
        { energy::TraceKind::RfHome, 7, 0.5,
          "95a7c8a581b2598fb09848f22166e711" },
        { energy::TraceKind::RfHome, 7, 0.0013,
          "ba6e3274bb05e078d07c987859186428" },
        { energy::TraceKind::RfHome, 42, 2,
          "0c3312ee609779abd0c736604597f279" },
        { energy::TraceKind::RfHome, 42, 0.5,
          "bd2b813a780c828729d3b8ca04b50c8d" },
        { energy::TraceKind::RfHome, 42, 0.0013,
          "d0a28ebf979967d2797c61de81099ed2" },
        { energy::TraceKind::RfOffice, 1, 2,
          "3c1550b788832717823104096f1b6739" },
        { energy::TraceKind::RfOffice, 1, 0.5,
          "9a7f1a5a8bba3cbc6bb554b2ed8b9560" },
        { energy::TraceKind::RfOffice, 1, 0.0013,
          "86269a44380fd5cd645b4c70d0246397" },
        { energy::TraceKind::RfOffice, 7, 2,
          "a5a3f7af8409415dffe4a67f0a861e47" },
        { energy::TraceKind::RfOffice, 7, 0.5,
          "a77b901ce48e9cfc6073643b27964014" },
        { energy::TraceKind::RfOffice, 7, 0.0013,
          "fd4718d68ba63245c431a36d566c38db" },
        { energy::TraceKind::RfOffice, 42, 2,
          "9a8cdabb14860ea2148abd1599064faa" },
        { energy::TraceKind::RfOffice, 42, 0.5,
          "10887b3fe411441f05b34af392bac741" },
        { energy::TraceKind::RfOffice, 42, 0.0013,
          "6976e1fd73d9d26460b0873e40d16518" },
        { energy::TraceKind::RfMementos, 1, 2,
          "2b6688917e3a7ee36a9fd7553811fb29" },
        { energy::TraceKind::RfMementos, 1, 0.5,
          "58873cb78f0d30c9feaf85e118b13853" },
        { energy::TraceKind::RfMementos, 1, 0.0013,
          "c6c485b324618cc01d9946f0969cddd4" },
        { energy::TraceKind::RfMementos, 7, 2,
          "7484c95a1cfc400f4003aa05de553a4d" },
        { energy::TraceKind::RfMementos, 7, 0.5,
          "973ed3301df649af428a177b8b9ce001" },
        { energy::TraceKind::RfMementos, 7, 0.0013,
          "a68e655222317ad707bc3cb02205716d" },
        { energy::TraceKind::RfMementos, 42, 2,
          "3ba690e0aa86ac4c4b7cf6ad2888be10" },
        { energy::TraceKind::RfMementos, 42, 0.5,
          "cdebf1062c3257e73ee11db2428e3a79" },
        { energy::TraceKind::RfMementos, 42, 0.0013,
          "d7288632d1fdc0791088b78395e7a8f7" },
        { energy::TraceKind::Solar, 1, 2,
          "bbd63cba835d2eadaa7692b9b07ac893" },
        { energy::TraceKind::Solar, 1, 0.5,
          "2d1b84ce02d747cc30c96d0e71ae416c" },
        { energy::TraceKind::Solar, 1, 0.0013,
          "e93bf3e580da2713af619bd64cbb3fb1" },
        { energy::TraceKind::Solar, 7, 2,
          "d7f956800b452d8b2523bfa4fa1198c9" },
        { energy::TraceKind::Solar, 7, 0.5,
          "1e8959aee134b0009b5ddf9c74c70ad0" },
        { energy::TraceKind::Solar, 7, 0.0013,
          "e93bf3e580da2713af619bd64cbb3fb1" },
        { energy::TraceKind::Solar, 42, 2,
          "52183d31b95a4fe3ac728f34f731dff9" },
        { energy::TraceKind::Solar, 42, 0.5,
          "ca5a370626f07e3609cb0e275bb814a6" },
        { energy::TraceKind::Solar, 42, 0.0013,
          "e93bf3e580da2713af619bd64cbb3fb1" },
        { energy::TraceKind::Thermal, 1, 2,
          "c02a141c3be8b762e61ddb4bd19592d2" },
        { energy::TraceKind::Thermal, 1, 0.5,
          "9dee7f2eaf45dd607a4a8bf6f97e8c58" },
        { energy::TraceKind::Thermal, 1, 0.0013,
          "f2fe0e995117ea0870c7b791f4066210" },
        { energy::TraceKind::Thermal, 7, 2,
          "18cc4303c4556aabb7de2aafa1bad435" },
        { energy::TraceKind::Thermal, 7, 0.5,
          "b553d0f1315349bb6802d50a3c647d55" },
        { energy::TraceKind::Thermal, 7, 0.0013,
          "afe23c7bda9eb103df618c6065b894f1" },
        { energy::TraceKind::Thermal, 42, 2,
          "0512ddc30f43cfba7341d38c78bc17ba" },
        { energy::TraceKind::Thermal, 42, 0.5,
          "e884e8c6c441fcf8f8c5e7552e835720" },
        { energy::TraceKind::Thermal, 42, 0.0013,
          "cfbe43f39d17c59918b64109495889b3" },
        { energy::TraceKind::Constant, 1, 2,
          "82f2865bf71f0eabbff59c11c3e832d1" },
        { energy::TraceKind::Constant, 1, 0.5,
          "50dc0fba0699676f4bfcf18c18098759" },
        { energy::TraceKind::Constant, 1, 0.0013,
          "23ced7d2860e2f2755a2db1469afa449" },
        { energy::TraceKind::Constant, 7, 2,
          "82f2865bf71f0eabbff59c11c3e832d1" },
        { energy::TraceKind::Constant, 7, 0.5,
          "50dc0fba0699676f4bfcf18c18098759" },
        { energy::TraceKind::Constant, 7, 0.0013,
          "23ced7d2860e2f2755a2db1469afa449" },
        { energy::TraceKind::Constant, 42, 2,
          "82f2865bf71f0eabbff59c11c3e832d1" },
        { energy::TraceKind::Constant, 42, 0.5,
          "50dc0fba0699676f4bfcf18c18098759" },
        { energy::TraceKind::Constant, 42, 0.0013,
          "23ced7d2860e2f2755a2db1469afa449" },
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(energy::traceKindName(pin.kind)) +
                     " seed " + std::to_string(pin.seed) + " " +
                     std::to_string(pin.duration_s) + " s");
        energy::TraceGenConfig cfg;
        cfg.seed = pin.seed;
        cfg.duration_s = pin.duration_s;
        const std::vector<double> s =
            energy::deriveNodeTrace(energy::makeTrace(pin.kind, cfg), 3,
                                    0.25)
                .samples();
        EXPECT_EQ(util::fnv1a128Hex(s.data(), s.size() * sizeof(double)),
                  pin.digest);
    }
}

TEST(DeriveNodeTrace, DerivingTwiceMatchesDerivingTheSamples)
{
    // A derived trace stacks its node gain on the base recipe; deriving
    // again must equal deriving from the first result's samples.
    const auto once =
        energy::deriveNodeTrace(energy::makeTrace(energy::TraceKind::Solar),
                                2, 0.3);
    const energy::PowerTrace stored(once.samplePeriod(), once.samples());
    EXPECT_EQ(energy::deriveNodeTrace(once, 9, 0.1).samples(),
              energy::deriveNodeTrace(stored, 9, 0.1).samples());
}

// ---------------------------------------------------------------------
// Nearest-rank percentile.
// ---------------------------------------------------------------------

TEST(Percentile, MatchesNearestRankOracle)
{
    // Oracle: 1-based rank ceil(pct/100 * N) of the ascending order.
    const std::vector<double> v = { 50, 10, 40, 20, 30 };
    EXPECT_EQ(percentileNearestRank(v, 25.0), 20.0);  // ceil(1.25)=2
    EXPECT_EQ(percentileNearestRank(v, 50.0), 30.0);  // ceil(2.5)=3
    EXPECT_EQ(percentileNearestRank(v, 60.0), 30.0);  // ceil(3.0)=3
    EXPECT_EQ(percentileNearestRank(v, 61.0), 40.0);  // ceil(3.05)=4
    EXPECT_EQ(percentileNearestRank(v, 90.0), 50.0);  // ceil(4.5)=5
    EXPECT_EQ(percentileNearestRank(v, 1.0), 10.0);   // ceil(0.05)=1
}

TEST(Percentile, GuardsEmptySingleAndEdges)
{
    EXPECT_EQ(percentileNearestRank({}, 50.0), 0.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 0.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 50.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 100.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, -5.0), 1.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 0.0), 1.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 100.0), 3.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 250.0), 3.0);
}

// ---------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------

TEST(Aggregate, IndependentOfDeliveryOrder)
{
    const std::vector<std::string> objectives = {
        "fleet_p50_progress", "fleet_p99_progress",
        "fleet_mean_progress", "fleet_wear_total",
        "fleet_deadline_miss",
    };
    std::vector<NodeResult> sorted;
    for (std::uint64_t n = 0; n < 8; ++n)
        sorted.push_back(makeNode(n, (n + 1) * 1000, 1.0, n * 10,
                                  n % 3 != 0));

    // Every delivery order a sharded worker fleet could produce must
    // reduce to the identical objective vector.
    std::vector<NodeResult> shuffled = sorted;
    std::reverse(shuffled.begin(), shuffled.end());
    std::rotate(shuffled.begin(), shuffled.begin() + 3,
                shuffled.end());

    EXPECT_EQ(aggregate(sorted, objectives),
              aggregate(shuffled, objectives));

    PointOutcome out;
    out.nodes = shuffled;
    aggregatePoint(out, FleetBlock{}, objectives);
    for (std::size_t i = 0; i + 1 < out.nodes.size(); ++i)
        EXPECT_LT(out.nodes[i].node, out.nodes[i + 1].node);
    EXPECT_EQ(out.total_instructions, 36000u);
    EXPECT_EQ(out.total_nvm_writes, 280u);
    EXPECT_EQ(out.completed_nodes, 5u);
}

TEST(Aggregate, GuardsEmptyAndSingleNodeFleets)
{
    std::vector<std::string> all;
    for (const auto &d : allObjectives())
        if (d.reduce)
            all.push_back(d.name);

    // N=0: every objective must come out finite (0), never NaN/Inf.
    for (const double v : aggregate({}, all)) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_EQ(v, 0.0);
    }

    // N=1: every percentile collapses to the one node; a zero-second
    // run must not divide by zero.
    const auto one = aggregate({ makeNode(0, 5000, 2.0, 40) }, all);
    for (const double v : one)
        EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(one[0], -2500.0); // p50 == the single node's rate
    EXPECT_EQ(one[1], -2500.0); // p90
    EXPECT_EQ(one[2], -2500.0); // p99
    for (const double v : aggregate({ makeNode(0, 5000, 0.0) }, all))
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Aggregate, DeadlineMissCountsCompletionAndBudget)
{
    const std::vector<std::string> obj = { "fleet_deadline_miss" };

    // deadline_cycles=0: completion alone is the deadline.
    std::vector<NodeResult> nodes = {
        makeNode(0, 100, 1.0, 0, true),
        makeNode(1, 100, 1.0, 0, false),
    };
    EXPECT_EQ(aggregate(nodes, obj)[0], 0.5);

    // A finite budget also times out slow completions.
    FleetBlock strict;
    strict.deadline_cycles = 1; // ~one cycle of wall clock
    nodes = {
        makeNode(0, 100, 1.0e-12, 0, true), // fast: meets
        makeNode(1, 100, 10.0, 0, true),    // slow: misses
        makeNode(2, 100, 10.0, 0, false),   // DNF: misses
    };
    const double miss = aggregate(nodes, obj, strict)[0];
    EXPECT_NEAR(miss, 2.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------------
// Fleet-block parsing.
// ---------------------------------------------------------------------

TEST(FleetSpecParse, ParsesFullSpec)
{
    const auto spec = parseOk(R"({
        "name": "office-fleet",
        "base": {"workload": "sha", "power": "trace2"},
        "axes": [{"param": "design", "values": ["wl", "wllog"]}],
        "objectives": ["fleet_p99_progress", "fleet_wear_total"],
        "fleet": {
            "nodes": 12,
            "jitter": 0.5,
            "deadline_cycles": 100000,
            "mix": [{"workload": "sha", "weight": 2},
                    {"workload": "qsort"}]
        }
    })");
    ASSERT_TRUE(spec.fleet);
    const FleetBlock &fleet = *spec.fleet;
    EXPECT_EQ(spec.name, "office-fleet");
    EXPECT_EQ(fleet.nodes, 12u);
    EXPECT_EQ(fleet.jitter, 0.5);
    EXPECT_EQ(fleet.deadline_cycles, 100000u);
    ASSERT_EQ(fleet.mix.size(), 2u);
    EXPECT_EQ(fleet.mix[0].weight, 2u);
    EXPECT_EQ(spec.axes.size(), 1u);

    // weight-2 sha + weight-1 qsort expands to a 3-long pattern.
    const auto pattern = fleet.workloadPattern();
    const std::vector<std::string> want = { "sha", "sha", "qsort" };
    EXPECT_EQ(pattern, want);
}

TEST(FleetSpecParse, RejectsBadDocumentsWithDiagnostics)
{
    // Unknown fleet key.
    EXPECT_NE(parseErr(R"({"base": {"workload": "sha"},
                           "fleet": {"nodes": 2, "bogus": 1}})")
                  .find("bogus"),
              std::string::npos);

    // Fleet block that is not an object / missing nodes.
    parseErr(R"({"base": {"workload": "sha"}, "fleet": 2})");
    parseErr(R"({"base": {"workload": "sha"}, "fleet": {}})");

    // Unknown objective names the registry.
    const std::string err = parseErr(R"({
        "base": {"workload": "sha"},
        "objectives": ["fleet_p12_progress"],
        "fleet": {"nodes": 2}
    })");
    EXPECT_NE(err.find("fleet_p12_progress"), std::string::npos);
    EXPECT_NE(err.find("fleet_p99_progress"), std::string::npos);

    // Unknown workload in the mix.
    EXPECT_NE(parseErr(R"({
                  "base": {"workload": "sha"},
                  "fleet": {"nodes": 2,
                            "mix": [{"workload": "no_such_app"}]}
              })")
                  .find("no_such_app"),
              std::string::npos);

    // A broken sweep surfaces the sweep parser's diagnostic.
    EXPECT_NE(parseErr(R"({
                  "base": {"power": "tracer9"},
                  "fleet": {"nodes": 2}
              })")
                  .find("tracer9"),
              std::string::npos);

    // Numbers too large for any counter are rejected at their path
    // before conversion, not wrapped or passed on.
    EXPECT_NE(parseErr(R"({"base": {"workload": "sha"},
                           "fleet": {"nodes": 1e30}})")
                  .find("$.fleet.nodes: expected an integer <= 4096"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"base": {"workload": "sha"},
                           "fleet": {"nodes": 2,
                                     "mix": [{"workload": "sha",
                                              "weight": 1e30}]}})")
                  .find("$.fleet.mix[0].weight: expected an integer "
                        "<= 1024"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"base": {"workload": "sha"},
                           "fleet": {"nodes": 2,
                                     "deadline_cycles": 1e30}})")
                  .find("$.fleet.deadline_cycles: expected an integer "
                        "<= 9007199254740992"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end fleet evaluation.
// ---------------------------------------------------------------------

namespace {

SweepSpec
smallFleet()
{
    return parseOk(R"({
        "name": "tiny",
        "base": {"workload": "sha", "power": "trace2"},
        "axes": [{"param": "design", "values": ["wl", "wt"]}],
        "objectives": ["fleet_p99_progress", "fleet_wear_total"],
        "fleet": {
            "nodes": 3,
            "jitter": 0.35,
            "mix": [{"workload": "sha", "weight": 2},
                    {"workload": "qsort"}]
        }
    })");
}

bool
runSmall(const SweepSpec &spec, ExploreReport &out,
         const std::string &cache_dir)
{
    ExploreConfig cfg;
    cfg.sweep = spec;
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

TEST(Fleet, WarmCacheExecutesNothing)
{
    setQuiet(true);
    // A stale cache from a previous test run would make the "cold"
    // leg warm; start from an empty directory every time.
    const std::string dir =
        ::testing::TempDir() + "wlcache_explore_fleet_warm";
    std::filesystem::remove_all(dir);
    const SweepSpec spec = smallFleet();

    ExploreReport cold, warm;
    ASSERT_TRUE(runSmall(spec, cold, dir));
    EXPECT_EQ(cold.full_runs, 6u); // 2 points x 3 nodes
    EXPECT_EQ(cold.executed, 6u);
    ASSERT_TRUE(runSmall(spec, warm, dir));
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cache_hits, 6u);

    // Cache-served results reproduce the reports byte for byte.
    EXPECT_EQ(renderCsv(cold), renderCsv(warm));
    EXPECT_EQ(renderMd(cold), renderMd(warm));
    std::filesystem::remove_all(dir);
}

TEST(Fleet, NodesSeeDistinctTracesAndMixedWorkloads)
{
    setQuiet(true);
    const SweepSpec spec = smallFleet();
    ExploreReport report;
    ASSERT_TRUE(runSmall(spec, report, ""));
    ASSERT_EQ(report.outcomes.size(), 2u);

    for (const auto &o : report.outcomes) {
        ASSERT_EQ(o.nodes.size(), 3u);
        // Mix assignment is round-robin over the weight pattern.
        EXPECT_EQ(o.nodes[0].workload, "sha");
        EXPECT_EQ(o.nodes[1].workload, "sha");
        EXPECT_EQ(o.nodes[2].workload, "qsort");
        // Distinct node ids derive distinct traces, so the two sha
        // nodes of one point must not collapse to one cache key.
        EXPECT_NE(o.nodes[0].run_key, o.nodes[1].run_key);
    }
}

TEST(Fleet, ParetoWinnerCanDifferFromSingleNodeWinner)
{
    // Synthetic two-point fleet. Point A is uniform: every node makes
    // steady progress. Point B has one star node and one starving
    // node (a config that over-fits the best-placed device).
    std::vector<NodeResult> a_nodes = {
        makeNode(0, 100000, 1.0, 50), // 100k insn/s
        makeNode(1, 95000, 1.0, 50),  //  95k insn/s
    };
    std::vector<NodeResult> b_nodes = {
        makeNode(0, 400000, 1.0, 50), // 400k insn/s
        makeNode(1, 5000, 1.0, 50),   //   5k insn/s
    };

    // Single-node evaluation (the paper's): pick the config whose
    // best node runs fastest — that's B.
    const double a_best = -nodeProgressRate(a_nodes[0].result);
    const double b_best = -nodeProgressRate(b_nodes[0].result);
    EXPECT_LT(b_best, a_best);

    // Fleet p99 (tail) evaluation: A's worst node beats B's.
    const std::vector<std::string> obj = { "fleet_p99_progress" };
    const double a_p99 = aggregate(a_nodes, obj)[0];
    const double b_p99 = aggregate(b_nodes, obj)[0];
    EXPECT_LT(a_p99, b_p99);

    // So the fleet Pareto winner is A while the single-node winner
    // is B: tail objectives change which design you would ship.
    EXPECT_NE(a_p99 < b_p99, a_best < b_best);
}
