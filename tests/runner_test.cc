/**
 * @file
 * Tests for the parallel experiment runner: spec-key identity,
 * parallel-vs-serial determinism, result-cache round-trips,
 * corrupted-entry recovery, manifest emission, single execution per
 * key across runners sharing a cache, and interrupts that cache
 * nothing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "nvp/run_json.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/spec_key.hh"
#include "sim/logging.hh"
#include "util/json.hh"

using namespace wlcache;
using namespace wlcache::runner;
namespace fs = std::filesystem;

namespace {

/** Serialize a result so two runs can be compared bit for bit. */
std::string
resultJson(const nvp::RunResult &r)
{
    std::ostringstream os;
    nvp::writeRunResultJson(os, r);
    return os.str();
}

nvp::ExperimentSpec
makeSpec(nvp::DesignKind d, const char *app)
{
    nvp::ExperimentSpec s;
    s.design = d;
    s.workload = app;
    s.power = energy::TraceKind::RfHome;
    return s;
}

/** A fresh, empty cache directory under the test temp dir. */
class CacheDir
{
  public:
    explicit CacheDir(const char *name)
        : path_(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~CacheDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

} // namespace

TEST(SpecKey, StableAndSensitive)
{
    setQuiet(true);
    const auto spec = makeSpec(nvp::DesignKind::WL, "sha");
    const std::string key = specKey(spec);
    EXPECT_EQ(key.size(), 32u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
              std::string::npos);

    // Identical specs agree, even when one uses an equivalent tweak.
    EXPECT_EQ(key, specKey(makeSpec(nvp::DesignKind::WL, "sha")));
    auto noop = spec;
    noop.tweak = [](nvp::SystemConfig &) {};
    EXPECT_EQ(key, specKey(noop));

    // Every spec field and any effective tweak changes the key.
    auto other = spec;
    other.workload = "dijkstra";
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.design = nvp::DesignKind::Replay;
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.power_seed += 1;
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.workload_seed += 1;
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.scale = 2;
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.no_failure = true;
    EXPECT_NE(key, specKey(other));
    other = spec;
    other.tweak = [](nvp::SystemConfig &cfg) { cfg.wl.maxline = 4; };
    EXPECT_NE(key, specKey(other));
}

TEST(JobSet, StableIdsAndIndices)
{
    JobSet set;
    EXPECT_TRUE(set.empty());
    const auto i0 = set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    const auto i1 =
        set.add(makeSpec(nvp::DesignKind::Replay, "sha"), "custom");
    EXPECT_EQ(i0, 0u);
    EXPECT_EQ(i1, 1u);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set[0].id, "0:WL-Cache/sha@trace1");
    EXPECT_EQ(set[1].id, "custom");
    EXPECT_EQ(set[0].key, specKey(set[0].spec));
}

TEST(Runner, ParallelMatchesSerial)
{
    setQuiet(true);
    const nvp::DesignKind designs[] = { nvp::DesignKind::VCacheWT,
                                        nvp::DesignKind::Replay,
                                        nvp::DesignKind::WL };
    const char *const apps[] = { "sha",   "dijkstra", "adpcmdecode",
                                 "qsort", "basicmath", "FFT" };
    JobSet set;
    for (const auto d : designs)
        for (const auto *app : apps)
            set.add(makeSpec(d, app));

    RunnerConfig serial_cfg;
    serial_cfg.jobs = 1;
    Runner serial(serial_cfg);
    const auto serial_results = serial.runAll(set);
    EXPECT_EQ(serial.stats().jobs, 1u);

    RunnerConfig par_cfg;
    par_cfg.jobs = 4;
    Runner parallel(par_cfg);
    const auto par_results = parallel.runAll(set);
    EXPECT_EQ(parallel.stats().jobs, 4u);

    ASSERT_EQ(serial_results.size(), set.size());
    ASSERT_EQ(par_results.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_EQ(resultJson(serial_results[i]),
                  resultJson(par_results[i]))
            << "job " << set[i].id;
}

TEST(Runner, CacheRoundTrip)
{
    setQuiet(true);
    CacheDir dir("wlc-runner-cache-test");
    JobSet set;
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    set.add(makeSpec(nvp::DesignKind::Replay, "sha"));
    set.add(makeSpec(nvp::DesignKind::WL, "dijkstra"));

    RunnerConfig cfg;
    cfg.jobs = 2;
    cfg.cache_dir = dir.str();

    Runner cold(cfg);
    const auto cold_results = cold.runAll(set);
    EXPECT_EQ(cold.stats().cache_hits, 0u);
    EXPECT_EQ(cold.stats().executed, set.size());

    Runner warm(cfg);
    const auto warm_results = warm.runAll(set);
    EXPECT_EQ(warm.stats().cache_hits, set.size());
    EXPECT_EQ(warm.stats().executed, 0u);
    for (const auto &rec : warm.stats().records)
        EXPECT_TRUE(rec.cached);

    ASSERT_EQ(cold_results.size(), warm_results.size());
    for (std::size_t i = 0; i < cold_results.size(); ++i)
        EXPECT_EQ(resultJson(cold_results[i]),
                  resultJson(warm_results[i]))
            << "job " << set[i].id;
}

TEST(Runner, CorruptedCacheEntryReExecutes)
{
    setQuiet(true);
    CacheDir dir("wlc-runner-corrupt-test");
    JobSet set;
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));

    RunnerConfig cfg;
    cfg.jobs = 1;
    cfg.cache_dir = dir.str();

    Runner cold(cfg);
    const auto cold_results = cold.runAll(set);
    ASSERT_EQ(cold.stats().executed, 1u);

    const ResultCache cache(dir.str());
    const std::string entry = cache.entryPath(set[0].key);
    ASSERT_TRUE(fs::exists(entry));

    // Garbage entry: the runner must fall back to execution.
    {
        std::ofstream(entry) << "this is not JSON {]";
        Runner again(cfg);
        const auto results = again.runAll(set);
        EXPECT_EQ(again.stats().cache_hits, 0u);
        EXPECT_EQ(again.stats().executed, 1u);
        EXPECT_EQ(resultJson(results[0]), resultJson(cold_results[0]));
    }

    // Truncated entry (valid prefix of a real record): same fallback.
    {
        std::ostringstream full;
        nvp::writeRunResultJson(full, cold_results[0]);
        std::ofstream(entry) << full.str().substr(0,
                                                  full.str().size() / 2);
        Runner again(cfg);
        const auto results = again.runAll(set);
        EXPECT_EQ(again.stats().cache_hits, 0u);
        EXPECT_EQ(again.stats().executed, 1u);
        EXPECT_EQ(resultJson(results[0]), resultJson(cold_results[0]));
    }

    // The fallback re-stored a good entry, so the next run hits.
    {
        Runner warm(cfg);
        warm.runAll(set);
        EXPECT_EQ(warm.stats().cache_hits, 1u);
    }
}

TEST(Runner, ResultCacheDirectCorruptLoad)
{
    setQuiet(true);
    CacheDir dir("wlc-result-cache-test");
    const ResultCache cache(dir.str());
    EXPECT_TRUE(cache.enabled());

    nvp::RunResult out;
    EXPECT_FALSE(cache.load("00000000000000000000000000000000", out));

    const std::string key(32, 'a');
    std::ofstream(cache.entryPath(key)) << "{\"schema\": 1";
    EXPECT_FALSE(cache.load(key, out));
    // Corrupted entries are deleted so the next store starts clean.
    EXPECT_FALSE(fs::exists(cache.entryPath(key)));

    const ResultCache disabled("");
    EXPECT_FALSE(disabled.enabled());
    EXPECT_FALSE(disabled.load(key, out));
}

TEST(Runner, ManifestWritten)
{
    setQuiet(true);
    CacheDir dir("wlc-runner-manifest-test");
    const std::string manifest =
        (fs::path(dir.str()) / "manifest.json").string();

    JobSet set;
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    set.add(makeSpec(nvp::DesignKind::Replay, "sha"));

    RunnerConfig cfg;
    cfg.jobs = 2;
    cfg.manifest_path = manifest;
    Runner run(cfg);
    run.runAll(set);

    std::ifstream in(manifest);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();

    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parseJson(ss.str(), v, &err)) << err;
    EXPECT_EQ(v.get("total")->asU64(), 2u);
    EXPECT_EQ(v.get("executed")->asU64(), 2u);
    ASSERT_NE(v.get("results"), nullptr);
    ASSERT_EQ(v.get("results")->items().size(), 2u);
    EXPECT_EQ(v.get("results")->items()[0].get("workload")->asString(),
              "sha");

    // Wall-clock spans: every record carries [t_start, t_end] relative
    // to batch start, so a consumer can reconstruct worker occupancy.
    for (const util::JsonValue &rec : v.get("results")->items()) {
        ASSERT_NE(rec.get("t_start"), nullptr);
        ASSERT_NE(rec.get("t_end"), nullptr);
        const double t0 = rec.get("t_start")->asDouble();
        const double t1 = rec.get("t_end")->asDouble();
        EXPECT_GE(t0, 0.0);
        EXPECT_GE(t1, t0);
        EXPECT_NEAR(t1 - t0,
                    rec.get("wall_ms")->asDouble() / 1000.0, 1e-4);
    }
}

TEST(Runner, JobRecordsCarrySpans)
{
    setQuiet(true);
    JobSet set;
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    set.add(makeSpec(nvp::DesignKind::WL, "dijkstra"));

    RunnerConfig cfg;
    cfg.jobs = 2;
    Runner run(cfg);
    run.runAll(set);

    ASSERT_EQ(run.stats().records.size(), 2u);
    for (const auto &rec : run.stats().records) {
        EXPECT_GE(rec.t_start_s, 0.0);
        EXPECT_GE(rec.t_end_s, rec.t_start_s);
        EXPECT_NEAR(rec.t_end_s - rec.t_start_s, rec.wall_seconds,
                    1e-6);
    }
}

TEST(Runner, RunResultJsonRoundTrip)
{
    setQuiet(true);
    const auto r =
        nvp::runExperiment(makeSpec(nvp::DesignKind::WL, "sha"));

    std::stringstream ss;
    nvp::writeRunResultJson(ss, r);

    nvp::RunResult back;
    std::string err;
    ASSERT_TRUE(nvp::readRunResultJson(ss, back, &err)) << err;
    EXPECT_EQ(resultJson(r), resultJson(back));

    // The v3 telemetry fields must survive: the embedded stats tree
    // byte for byte, and the per-interval rollups field by field.
    EXPECT_NE(r.stats_json, "{}");
    EXPECT_EQ(back.stats_json, r.stats_json);
    ASSERT_EQ(back.intervals.size(), r.intervals.size());
    ASSERT_FALSE(r.intervals.empty());
    EXPECT_EQ(back.intervals_dropped, r.intervals_dropped);
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const auto &a = r.intervals[i];
        const auto &b = back.intervals[i];
        EXPECT_EQ(b.index, a.index);
        EXPECT_EQ(b.start_cycle, a.start_cycle);
        EXPECT_EQ(b.end_cycle, a.end_cycle);
        EXPECT_EQ(b.instructions, a.instructions);
        EXPECT_EQ(b.nvm_writes, a.nvm_writes);
        EXPECT_EQ(b.cleans, a.cleans);
        EXPECT_EQ(b.dirty_high_water, a.dirty_high_water);
        EXPECT_DOUBLE_EQ(b.checkpoint_j, a.checkpoint_j);
        EXPECT_DOUBLE_EQ(b.harvested_j, a.harvested_j);
    }
}

TEST(Runner, TwoRunnersOnOneCacheExecuteEachKeyOnce)
{
    setQuiet(true);
    CacheDir dir("wlc-runner-shared-cache-test");
    // Duplicate specs share a key, so the batch has fewer distinct
    // keys than jobs; each key must still execute exactly once across
    // both runners and all their threads.
    JobSet set;
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    set.add(makeSpec(nvp::DesignKind::Replay, "sha"));
    set.add(makeSpec(nvp::DesignKind::WL, "dijkstra"));
    set.add(makeSpec(nvp::DesignKind::WL, "sha"));
    set.add(makeSpec(nvp::DesignKind::VCacheWT, "qsort"));
    set.add(makeSpec(nvp::DesignKind::Replay, "sha"));
    const std::size_t distinct_keys = 4;

    RunnerConfig cfg;
    cfg.jobs = 2;
    cfg.cache_dir = dir.str();
    Runner a(cfg), b(cfg);
    std::vector<nvp::RunResult> ra, rb;
    std::thread ta([&] { ra = a.runAll(set); });
    std::thread tb([&] { rb = b.runAll(set); });
    ta.join();
    tb.join();

    EXPECT_EQ(a.stats().executed + b.stats().executed, distinct_keys);
    EXPECT_EQ(a.stats().cache_hits + b.stats().cache_hits,
              2 * set.size() - distinct_keys);
    ASSERT_EQ(ra.size(), set.size());
    ASSERT_EQ(rb.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_EQ(resultJson(ra[i]), resultJson(rb[i]))
            << "job " << set[i].id;
}

TEST(Runner, InterruptCachesNothingAndRerunMatchesCold)
{
    setQuiet(true);
    CacheDir cache_dir("wlc-runner-interrupt-cache");
    CacheDir cold_dir("wlc-runner-interrupt-cold");
    // The flag is process-wide: never leak it into later tests.
    struct ClearFlag
    {
        ~ClearFlag() { interruptFlag().store(false); }
    } clear_flag;

    nvp::ExperimentSpec spec = makeSpec(nvp::DesignKind::WL, "sha");
    spec.scale = 16;
    JobSet set;
    set.add(spec);

    // The cold reference, in its own cache, also times one execution
    // (the workload trace is built once beforehand, so the timed run
    // is simulation only, like the interrupted one below).
    nvp::runExperiment(spec);
    RunnerConfig cold_cfg;
    cold_cfg.jobs = 1;
    cold_cfg.cache_dir = cold_dir.str();
    Runner cold(cold_cfg);
    const auto ref = cold.runAll(set);
    const auto run_time = std::chrono::duration<double>(
        cold.stats().records[0].wall_seconds);

    RunnerConfig cfg;
    cfg.jobs = 1;
    cfg.cache_dir = cache_dir.str();

    // Interrupt a quarter of a run after the job took its key lock,
    // i.e. well inside the simulation.
    const fs::path lock =
        fs::path(cache_dir.str()) / (set[0].key + ".lock");
    Runner cut(cfg);
    std::thread worker([&] { cut.runAll(set); });
    while (!fs::exists(lock))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(run_time / 4);
    interruptFlag().store(true);
    worker.join();

    ASSERT_EQ(cut.stats().records.size(), 1u);
    EXPECT_FALSE(cut.stats().records[0].completed);
    EXPECT_EQ(cut.stats().executed, 1u);
    // The cut run left nothing behind but its key lock.
    for (const auto &entry : fs::directory_iterator(cache_dir.str()))
        EXPECT_EQ(entry.path(), lock);

    interruptFlag().store(false);
    Runner rerun(cfg);
    const auto res = rerun.runAll(set);
    EXPECT_EQ(rerun.stats().executed, 1u);
    EXPECT_EQ(rerun.stats().cache_hits, 0u);
    ASSERT_TRUE(res[0].completed);
    EXPECT_EQ(resultJson(res[0]), resultJson(ref[0]));
    // The re-run simulated the whole run: no prefix was kept.
    EXPECT_EQ(rerun.stats().simulated_cycles,
              cold.stats().simulated_cycles);
}
