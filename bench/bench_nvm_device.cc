/**
 * @file
 * google-benchmark microbenchmarks of the NVM device timing cores
 * (mem/device/): legacy single-cursor vs banked queued arbitration on
 * the same access streams, plus the incremental cost of the optional
 * layers (wear tracking, rotation wear leveling, hybrid fast region).
 * The device model sits on the simulator's hottest path — every cache
 * miss and every dirty-line drain goes through it — so these guard
 * simulator throughput as the model grows richer.
 */

#include <benchmark/benchmark.h>

#include "mem/device/tech_profile.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"

using namespace wlcache;

namespace {

mem::NvmParams
baseParams(mem::NvmModel model)
{
    mem::NvmParams p;
    p.size_bytes = 1u << 20;
    p.model = model;
    return p;
}

/** Self-paced sequential word writes: each issues at the prior ack. */
void
sequentialWrites(benchmark::State &state, mem::NvmModel model)
{
    mem::NvmMemory nvm(baseParams(model));
    const std::uint32_t v = 1;
    Cycle t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const auto r = nvm.write(a, 4, &v, t);
        t = r.ready;
        a = (a + 4) & 0xffff;
    }
}

void
BM_NvmDevice_LegacySequentialWrites(benchmark::State &state)
{
    sequentialWrites(state, mem::NvmModel::SingleCursor);
}
BENCHMARK(BM_NvmDevice_LegacySequentialWrites);

void
BM_NvmDevice_BankedSequentialWrites(benchmark::State &state)
{
    sequentialWrites(state, mem::NvmModel::BankedQueue);
}
BENCHMARK(BM_NvmDevice_BankedSequentialWrites);

void
BM_NvmDevice_BankedQueuePressure(benchmark::State &state)
{
    // Worst case for the ring queues: every write lands in the same
    // bank at the same issue time, so each pays admission against a
    // full queue. Queue depth is the sweep axis.
    mem::NvmParams p = baseParams(mem::NvmModel::BankedQueue);
    p.queue_depth = static_cast<unsigned>(state.range(0));
    mem::NvmMemory nvm(p);
    const std::uint32_t v = 1;
    Cycle t = 0;
    for (auto _ : state) {
        const auto r = nvm.write(0x100, 4, &v, t);
        benchmark::DoNotOptimize(r.ready);
        t = r.start;  // keep issuing at admission time: queue stays full
    }
}
BENCHMARK(BM_NvmDevice_BankedQueuePressure)->Arg(1)->Arg(4)->Arg(16);

void
BM_NvmDevice_BankedRowHitReads(benchmark::State &state)
{
    // Reads ping-ponging inside one open row: the row-buffer bookkeeping
    // is exercised on every access but activation is paid once.
    mem::NvmMemory nvm(baseParams(mem::NvmModel::BankedQueue));
    Cycle t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const auto r = nvm.read(a, 4, t, nullptr);
        t = r.ready;
        a ^= 0x80;  // stays within one 1 KiB row and one bank
    }
}
BENCHMARK(BM_NvmDevice_BankedRowHitReads);

void
BM_NvmDevice_WearTrackedWrites(benchmark::State &state)
{
    // Banked writes with per-line endurance counting and rotation
    // remap: the full wear-leveling path vs BankedSequentialWrites.
    mem::NvmParams p = baseParams(mem::NvmModel::BankedQueue);
    p.track_wear = true;
    p.wear_scheme = mem::NvmWearScheme::Rotate;
    p.rotate_period_writes = 4096;
    mem::NvmMemory nvm(p);
    const std::uint32_t v = 1;
    Cycle t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const auto r = nvm.write(a, 4, &v, t);
        t = r.ready;
        a = (a + 4) & 0xffff;
    }
    state.counters["wear_max"] =
        static_cast<double>(nvm.deviceStats().wear_max);
}
BENCHMARK(BM_NvmDevice_WearTrackedWrites);

void
BM_NvmDevice_HybridFastWrites(benchmark::State &state)
{
    // A hot line resident in the STT-RAM fast region: steady state is
    // the hybrid hit path (no main-array timing or wear at all).
    mem::NvmParams p = baseParams(mem::NvmModel::BankedQueue);
    p.hybrid_lines = 8;
    p.hybrid_promote_writes = 1;
    mem::NvmMemory nvm(p);
    const std::uint32_t v = 1;
    Cycle t = 0;
    for (auto _ : state) {
        const auto r = nvm.write(0x200, 4, &v, t);
        t = r.ready;
    }
}
BENCHMARK(BM_NvmDevice_HybridFastWrites);

void
endToEnd(benchmark::State &state, bool banked)
{
    // Whole-system cost of the device model choice: the same WL run
    // with the legacy core vs the banked core with wear tracking on.
    for (auto _ : state) {
        nvp::ExperimentSpec s;
        s.workload = "sha";
        s.power = energy::TraceKind::RfMementos;
        s.design = nvp::DesignKind::WL;
        if (banked) {
            s.tweak = [](nvp::SystemConfig &c) {
                c.nvm.model = mem::NvmModel::BankedQueue;
                c.nvm.track_wear = true;
            };
        }
        const auto r = nvp::runExperiment(s);
        benchmark::DoNotOptimize(r.outages);
    }
}

void
BM_NvmDevice_EndToEndLegacy(benchmark::State &state)
{
    endToEnd(state, false);
}
BENCHMARK(BM_NvmDevice_EndToEndLegacy)->Unit(benchmark::kMillisecond);

void
BM_NvmDevice_EndToEndBanked(benchmark::State &state)
{
    endToEnd(state, true);
}
BENCHMARK(BM_NvmDevice_EndToEndBanked)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
