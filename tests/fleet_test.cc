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
    for (std::size_t i = 0; i < base.numSamples(); ++i) {
        if (base.samples()[i] == 0.0) {
            EXPECT_EQ(a.samples()[i], 0.0);
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
