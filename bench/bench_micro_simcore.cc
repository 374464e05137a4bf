/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * tag-array lookups, WL-Cache store handling, DirtyQueue operations,
 * NVM timed accesses, system construction, and full trace replay
 * throughput. These guard the simulator's own performance (a full
 * figure sweep replays hundreds of millions of events, in thousands
 * of short runs).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "cache/tag_array.hh"
#include "core/dirty_queue.hh"
#include "core/wl_cache.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"
#include "nvp/system.hh"
#include "sim/rng.hh"
#include "telemetry/timeline.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_TagArrayLookupHit(benchmark::State &state)
{
    cache::CacheParams p;
    cache::TagArray tags(p);
    std::uint8_t img[64] = {};
    const auto v = tags.victim(0x1000);
    tags.install(v, 0x1000, img);
    for (auto _ : state)
        benchmark::DoNotOptimize(tags.lookup(0x1020));
}
BENCHMARK(BM_TagArrayLookupHit);

void
BM_TagArrayLookupMiss(benchmark::State &state)
{
    cache::CacheParams p;
    cache::TagArray tags(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(tags.lookup(0x8000));
}
BENCHMARK(BM_TagArrayLookupMiss);

void
BM_DirtyQueueInsertRemove(benchmark::State &state)
{
    core::DirtyQueue dq(8, cache::ReplPolicy::FIFO);
    for (auto _ : state) {
        const auto s = dq.insert(0x1000);
        dq.remove(*s);
    }
}
BENCHMARK(BM_DirtyQueueInsertRemove);

void
BM_NvmTimedWrite(benchmark::State &state)
{
    mem::NvmParams np;
    np.size_bytes = 1u << 20;
    mem::NvmMemory nvm(np);
    const std::uint32_t v = 1;
    Cycle t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const auto r = nvm.write(a, 4, &v, t);
        t = r.ready;
        a = (a + 4) & 0xffff;
    }
}
BENCHMARK(BM_NvmTimedWrite);

void
BM_WlCacheStoreHit(benchmark::State &state)
{
    mem::NvmParams np;
    np.size_bytes = 1u << 20;
    mem::NvmMemory nvm(np);
    core::WLCache wl(cache::sramCacheParams(), core::WlParams{}, nvm,
                     nullptr);
    Cycle t = 0;
    for (auto _ : state) {
        const auto r =
            wl.access(MemOp::Store, 0x100, 4, 7, nullptr, t);
        t = r.ready;
    }
}
BENCHMARK(BM_WlCacheStoreHit);

void
BM_TimelineRecord(benchmark::State &state)
{
    // Cost of one enabled timeline record on a hot path (steady-state
    // ring overwrite once the buffer has wrapped).
    telemetry::TimelineBuffer tl(1024);
    telemetry::TimelineBuffer *tlp = &tl;
    Cycle t = 0;
    for (auto _ : state) {
        WLC_TIMELINE(tlp, DqInsert, t, "wl_cache", 0x1000, 3);
        ++t;
    }
    benchmark::DoNotOptimize(tl.totalRecorded());
}
BENCHMARK(BM_TimelineRecord);

void
BM_TimelineDisabled(benchmark::State &state)
{
    // The disabled path must stay one predictable branch: this is the
    // per-call-site overhead every untraced simulation pays.
    telemetry::TimelineBuffer *tlp = nullptr;
    benchmark::DoNotOptimize(tlp);
    Cycle t = 0;
    for (auto _ : state) {
        WLC_TIMELINE(tlp, DqInsert, t, "wl_cache", 0x1000, 3);
        ++t;
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TimelineDisabled);

void
BM_TraceReplayTraced(benchmark::State &state)
{
    // End-to-end overhead of a fully-instrumented run vs
    // BM_TraceReplayWithOutages (same spec, no timeline).
    const auto &trace = workloads::getTrace("sha");
    for (auto _ : state) {
        telemetry::TimelineBuffer tl(1u << 16);
        nvp::ExperimentSpec s;
        s.workload = "sha";
        s.power = energy::TraceKind::RfMementos;
        s.design = nvp::DesignKind::WL;
        s.tweak = [&tl](nvp::SystemConfig &c) { c.timeline = &tl; };
        const auto r = nvp::runExperiment(s);
        benchmark::DoNotOptimize(r.outages);
        benchmark::DoNotOptimize(tl.totalRecorded());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_TraceReplayTraced)->Unit(benchmark::kMillisecond);

void
BM_TraceReplayNoFailure(benchmark::State &state)
{
    // End-to-end simulator throughput: events per second replaying
    // sha through the full WL system with infinite power.
    const auto &trace = workloads::getTrace("sha");
    for (auto _ : state) {
        nvp::ExperimentSpec s;
        s.workload = "sha";
        s.no_failure = true;
        s.design = nvp::DesignKind::WL;
        const auto r = nvp::runExperiment(s);
        benchmark::DoNotOptimize(r.on_cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_TraceReplayNoFailure)->Unit(benchmark::kMillisecond);

void
BM_TraceReplayWithOutages(benchmark::State &state)
{
    const auto &trace = workloads::getTrace("sha");
    for (auto _ : state) {
        nvp::ExperimentSpec s;
        s.workload = "sha";
        s.power = energy::TraceKind::RfMementos;
        s.design = nvp::DesignKind::WL;
        const auto r = nvp::runExperiment(s);
        benchmark::DoNotOptimize(r.outages);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_TraceReplayWithOutages)->Unit(benchmark::kMillisecond);

void
BM_SystemSimConstruct(benchmark::State &state)
{
    // The fixed cost every run pays before its first event: building
    // (and tearing down) a WL system on sha under RF-home power.
    const auto &trace = workloads::getTrace("sha");
    const energy::PowerTrace power =
        energy::makeTrace(energy::TraceKind::RfHome);
    const nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    for (auto _ : state) {
        nvp::SystemSim sim(cfg, trace, power);
        benchmark::DoNotOptimize(sim.checkpointReserveJ());
    }
}
BENCHMARK(BM_SystemSimConstruct)->Unit(benchmark::kMicrosecond);

void
BM_WorkloadTraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        workloads::clearTraceCache();
        const auto &t = workloads::getTrace("adpcmdecode");
        benchmark::DoNotOptimize(t.events.size());
    }
    workloads::clearTraceCache();
}
BENCHMARK(BM_WorkloadTraceGeneration)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
