/**
 * @file
 * Tests for the §3.3 alternative design (WT + CAM write-back buffer)
 * and for system-level determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "cache/wt_buffered_cache.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"
#include "nvp/run_json.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

struct WtBufFixture : public ::testing::Test
{
    WtBufFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 1u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
        params.size_bytes = 1024;
        params.assoc = 2;
        params.line_bytes = 64;
    }

    std::unique_ptr<WtBufferedCache>
    make(unsigned entries = 16)
    {
        WtBufferParams wb;
        wb.entries = entries;
        return std::make_unique<WtBufferedCache>(params, wb, *nvm,
                                                 &meter);
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    CacheParams params;
};

} // namespace

TEST_F(WtBufFixture, StoresDoNotWaitForNvm)
{
    auto c = make();
    const auto r = c->access(MemOp::Store, 0x100, 4, 7, nullptr, 1000);
    EXPECT_LT(r.ready - 1000, nvm->params().writeAckLatency(4));
    EXPECT_EQ(c->bufferDepth(), 1u);
}

TEST_F(WtBufFixture, BufferedWritesReachNvm)
{
    auto c = make();
    c->access(MemOp::Store, 0x100, 4, 7, nullptr, 0);
    c->checkpoint(1'000'000);
    EXPECT_EQ(nvm->peekInt(0x100, 4), 7u);
    EXPECT_EQ(c->bufferDepth(), 0u);
}

TEST_F(WtBufFixture, SameWordWritesCoalesce)
{
    auto c = make();
    Cycle t = 0;
    t = c->access(MemOp::Store, 0x100, 4, 1, nullptr, t).ready;
    t = c->access(MemOp::Store, 0x100, 4, 2, nullptr, t).ready;
    EXPECT_EQ(c->coalescedWrites(), 1u);
    c->checkpoint(t + 100000);
    EXPECT_EQ(nvm->peekInt(0x100, 4), 2u);
}

TEST_F(WtBufFixture, WordLandingInsideCamSearchIsWrittenAfresh)
{
    // A store coalesces only into a buffered word still pending once
    // its CAM search is done; an entry whose write lands inside the
    // search window stays queued but no longer absorbs the store.
    WtBufferParams wb;
    wb.cam_search_latency = 1;
    WtBufferedCache c(params, wb, *nvm, &meter);
    c.access(MemOp::Store, 0x100, 4, 1, nullptr, 0);
    // The first store is the first NVM operation: a fresh device
    // issued the same write gives its completion cycle.
    mem::NvmMemory twin(nvm->params());
    const std::uint64_t one = 1;
    const Cycle landed =
        twin.write(0x100, 4, &one, wb.cam_search_latency).ready;

    c.access(MemOp::Store, 0x100, 4, 2, nullptr, landed - 2);
    EXPECT_EQ(c.coalescedWrites(), 1u);
    EXPECT_EQ(nvm->numWrites(), 1u);

    c.access(MemOp::Store, 0x100, 4, 3, nullptr, landed - 1);
    EXPECT_EQ(c.coalescedWrites(), 1u);
    EXPECT_EQ(nvm->numWrites(), 2u);
    EXPECT_EQ(c.bufferDepth(), 2u);
    c.checkpoint(landed + 100000);
    EXPECT_EQ(nvm->peekInt(0x100, 4), 3u);
}

TEST_F(WtBufFixture, FullBufferBackpressures)
{
    auto c = make(/*entries=*/2);
    Cycle t = 0;
    for (unsigned i = 0; i < 12; ++i)
        t = c->access(MemOp::Store, 0x100 + 64 * i, 4, i, nullptr, t)
                .ready;
    EXPECT_GT(c->stats().stall_cycles.value(), 0.0);
}

TEST_F(WtBufFixture, EveryAccessPaysTheCamSearch)
{
    // The §3.3 critical-path tax: even a pure load costs the search.
    auto c = make();
    const double before =
        meter.get(energy::EnergyCategory::CacheRead);
    c->access(MemOp::Load, 0x100, 4, 0, nullptr, 0);
    const double spent =
        meter.get(energy::EnergyCategory::CacheRead) - before;
    EXPECT_GE(spent, WtBufferParams{}.cam_search_energy);
}

TEST_F(WtBufFixture, CheckpointBoundCoversFullBuffer)
{
    auto c = make(16);
    EXPECT_NEAR(c->checkpointEnergyBound(),
                16.0 * nvm->params().writeEnergy(8), 1e-12);
    // Much larger than WL-Cache's per-line-bounded reserve would be
    // per tracked entry — but the real §3.3 killer is CAM cost.
    EXPECT_GT(c->leakageWatts(), params.leakage_watts);
}

TEST_F(WtBufFixture, SystemLevelCrashConsistency)
{
    nvp::ExperimentSpec s;
    s.design = nvp::DesignKind::WtBuffered;
    s.workload = "adpcmdecode";
    s.power = energy::TraceKind::RfOffice;
    s.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
        cfg.check_load_values = true;
    };
    const auto r = nvp::runExperiment(s);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.final_state_correct);
    EXPECT_EQ(r.consistency_violations, 0u);
    EXPECT_EQ(r.load_value_mismatches, 0u);
}

// --- JSON run records ---------------------------------------------------------

TEST(RunJson, SerializesRunResult)
{
    nvp::ExperimentSpec s;
    s.design = nvp::DesignKind::WL;
    s.workload = "sha";
    s.no_failure = true;
    const auto r = nvp::runExperiment(s);
    std::ostringstream os;
    nvp::writeRunResultJson(os, r);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"workload\": \"sha\""), std::string::npos);
    EXPECT_NE(j.find("\"design\": \"WL-Cache\""), std::string::npos);
    EXPECT_NE(j.find("\"completed\": true"), std::string::npos);
    EXPECT_NE(j.find("\"energy_j\""), std::string::npos);
    EXPECT_NE(j.find("\"compute\""), std::string::npos);
    // Balanced braces (cheap structural check).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

// --- System determinism -------------------------------------------------------

TEST(Determinism, IdenticalSpecsProduceIdenticalResults)
{
    nvp::ExperimentSpec s;
    s.design = nvp::DesignKind::WL;
    s.workload = "gsmencode";
    s.power = energy::TraceKind::RfMementos;
    const auto a = nvp::runExperiment(s);
    const auto b = nvp::runExperiment(s);
    EXPECT_EQ(a.on_cycles, b.on_cycles);
    EXPECT_DOUBLE_EQ(a.off_seconds, b.off_seconds);
    EXPECT_EQ(a.outages, b.outages);
    EXPECT_EQ(a.nvm_writes, b.nvm_writes);
    EXPECT_DOUBLE_EQ(a.meter.total(), b.meter.total());
    EXPECT_EQ(a.wl.reconfigurations, b.wl.reconfigurations);
}

TEST(Determinism, PowerSeedChangesOutageTiming)
{
    nvp::ExperimentSpec s;
    s.design = nvp::DesignKind::WL;
    s.workload = "gsmencode";
    s.power = energy::TraceKind::RfMementos;
    s.power_seed = 7;
    const auto a = nvp::runExperiment(s);
    s.power_seed = 999;
    const auto b = nvp::runExperiment(s);
    EXPECT_NE(a.total_seconds, b.total_seconds);
}
