/**
 * @file
 * DirtyQueue invariant property test. Attaches the WL-Cache's
 * observation probe (a stats hook fired after every access and every
 * JIT checkpoint) to whole-system runs and asserts, at every single
 * step, the two §3/§5 invariants the write-light design rests on:
 *
 *  1. The number of dirty lines never exceeds maxline — the bound the
 *     reserved checkpoint energy is sized for.
 *  2. Cleaning engages at the waterline: once an access completes,
 *     the dirty count is back at or below the waterline (a store that
 *     pushed past it must have issued asynchronous cleanings).
 */

#include <algorithm>
#include <ostream>
#include <gtest/gtest.h>

#include "core/wl_cache.hh"
#include "energy/power_trace.hh"
#include "nvp/system.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

struct Scenario
{
    const char *workload;
    unsigned maxline;
    bool adaptive;
    bool dynamic;
};

// gtest's default printer dumps the raw bytes, including the address
// of `workload`, which ASLR moves on every run; print the fields so
// the listed test names are stable.
void
PrintTo(const Scenario &s, std::ostream *os)
{
    *os << s.workload << " maxline=" << s.maxline
        << (s.adaptive ? " adaptive" : "") << (s.dynamic ? " dynamic" : "");
}

class DirtyBoundProperty : public ::testing::TestWithParam<Scenario>
{};

TEST_P(DirtyBoundProperty, HoldsAtEveryStep)
{
    const Scenario sc = GetParam();

    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.wl.maxline = sc.maxline;
    cfg.adaptive.enabled = sc.adaptive;
    cfg.adaptive.maxline_min = 1;
    cfg.wl_dynamic = sc.dynamic;
    cfg.validate_consistency = true;

    const auto &trace = workloads::getTrace(sc.workload, 1, 42);
    energy::TraceGenConfig tg;
    tg.seed = 7;
    const auto power =
        energy::makeTrace(energy::TraceKind::RfHome, tg);

    nvp::SystemSim sim(cfg, trace, power, false);
    auto *wl = dynamic_cast<core::WLCache *>(&sim.dcache());
    ASSERT_NE(wl, nullptr);

    unsigned max_dirty_seen = 0;
    std::uint64_t probes = 0;
    std::uint64_t maxline_violations = 0;
    std::uint64_t waterline_violations = 0;
    wl->setAccessProbe([&](Cycle) {
        ++probes;
        const unsigned dirty = wl->dirtyLineCount();
        max_dirty_seen = std::max(max_dirty_seen, dirty);
        // Invariant 1: the checkpoint-energy bound. maxline() is read
        // live because adaptation may reconfigure it between probes.
        if (dirty > wl->maxline())
            ++maxline_violations;
        // Invariant 2: the waterline protocol has already cleaned
        // down to the waterline by the time the access completed.
        if (dirty > wl->waterline())
            ++waterline_violations;
    });

    const nvp::RunResult res = sim.run();

    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.consistency_violations, 0u);
    EXPECT_GT(probes, trace.events.size());  // accesses + checkpoints
    EXPECT_EQ(maxline_violations, 0u);
    EXPECT_EQ(waterline_violations, 0u);

    if (wl->waterline() > 0) {
        // The probe must have actually observed dirty lines, else the
        // property holds vacuously.
        EXPECT_GT(max_dirty_seen, 0u);
        if (max_dirty_seen >= wl->waterline()) {
            EXPECT_GT(wl->wlStats().cleanings.value(), 0.0);
        }
    } else {
        // waterline == 0 (maxline == gap): every store cleans before
        // the access completes, so a dirty line is never observable —
        // but the cleanings it forced must show up in the stats.
        EXPECT_EQ(max_dirty_seen, 0u);
        EXPECT_GT(wl->wlStats().cleanings.value(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirtyBoundProperty,
    ::testing::Values(
        Scenario{ "sha", 6, true, false },
        Scenario{ "sha", 2, false, false },
        Scenario{ "sha", 1, false, false },
        Scenario{ "qsort", 4, false, false },
        Scenario{ "qsort", 6, true, true },
        Scenario{ "dijkstra", 3, false, false }),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        const Scenario &s = info.param;
        return std::string(s.workload) + "_m" +
            std::to_string(s.maxline) + (s.adaptive ? "_adapt" : "") +
            (s.dynamic ? "_dyn" : "");
    });

/**
 * The probe also fires after JIT checkpoints, where the queue has
 * been flushed: the dirty count must be exactly zero there. We can't
 * distinguish probe causes, so check the weaker but still sharp
 * property that a dirty count of zero is observed at least once per
 * outage (every checkpoint flushes everything).
 */
TEST(DirtyBoundProperty, CheckpointDrainsToZero)
{
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    const auto &trace = workloads::getTrace("sha", 1, 42);
    energy::TraceGenConfig tg;
    tg.seed = 7;
    const auto power =
        energy::makeTrace(energy::TraceKind::RfHome, tg);

    nvp::SystemSim sim(cfg, trace, power, false);
    auto *wl = dynamic_cast<core::WLCache *>(&sim.dcache());
    ASSERT_NE(wl, nullptr);

    std::uint64_t zero_observations = 0;
    wl->setAccessProbe([&](Cycle) {
        if (wl->dirtyLineCount() == 0)
            ++zero_observations;
    });

    const nvp::RunResult res = sim.run();
    EXPECT_TRUE(res.completed);
    ASSERT_GT(res.outages, 0u);
    EXPECT_GE(zero_observations, res.outages);
}

} // namespace
