/**
 * @file
 * Boundary conditions of the adaptive maxline/waterline runtime and
 * the surrounding system loop: the degenerate maxline=1 configuration
 * (write-through-like, waterline clamped to zero), a pinned adaptive
 * range (min == max), and a completely dead energy environment, which
 * must terminate promptly instead of spinning in the recharge loop.
 */

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "core/wl_cache.hh"
#include "energy/power_trace.hh"
#include "nvp/system.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

workloads::BuiltTrace const &
shaTrace()
{
    return workloads::getTrace("sha", 1, 42);
}

energy::PowerTrace
rfHome()
{
    energy::TraceGenConfig tg;
    tg.seed = 7;
    return energy::makeTrace(energy::TraceKind::RfHome, tg);
}

/** waterline = maxline - gap clamps at zero instead of wrapping. */
TEST(AdaptiveBoundary, WaterlineClampsToZero)
{
    core::WlParams p;
    p.maxline = 1;
    p.waterline_gap = 1;
    EXPECT_EQ(p.waterline(), 0u);
    p.waterline_gap = 4;  // gap larger than maxline
    EXPECT_EQ(p.waterline(), 0u);
    p.maxline = 6;
    p.waterline_gap = 1;
    EXPECT_EQ(p.waterline(), 5u);
}

/**
 * maxline = 1 is the smallest legal bound: at most one dirty line
 * ever, waterline 0, so every store triggers cleaning. The run must
 * still complete with a consistent NVM image.
 */
TEST(AdaptiveBoundary, MaxlineOneRunsToCompletion)
{
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.wl.maxline = 1;
    cfg.adaptive.enabled = false;
    cfg.validate_consistency = true;

    const energy::PowerTrace power = rfHome();
    nvp::SystemSim sim(cfg, shaTrace(), power, false);
    const auto *wl = dynamic_cast<core::WLCache *>(&sim.dcache());
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->waterline(), 0u);

    const nvp::RunResult res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.outages, 0u);
    EXPECT_EQ(res.consistency_violations, 0u);
    EXPECT_TRUE(res.final_state_correct);
}

/** A pinned adaptive range (min == max) must never reconfigure away
 *  from it, no matter what the power environment does. */
TEST(AdaptiveBoundary, PinnedRangeNeverMoves)
{
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.wl.maxline = 3;
    cfg.adaptive.enabled = true;
    cfg.adaptive.maxline_min = 3;
    cfg.adaptive.maxline_max = 3;
    cfg.validate_consistency = true;

    const energy::PowerTrace power = rfHome();
    nvp::SystemSim sim(cfg, shaTrace(), power, false);
    const nvp::RunResult res = sim.run();

    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.outages, 0u);
    EXPECT_EQ(res.wl.maxline_min_seen, 3u);
    EXPECT_EQ(res.wl.maxline_max_seen, 3u);
    EXPECT_EQ(res.consistency_violations, 0u);
}

/**
 * An all-zero power trace can never charge the capacitor to Von. The
 * harvester must detect the dead environment after one full trace
 * pass and give up, so the run returns completed=false promptly
 * instead of stepping the recharge loop ~5e8 times.
 */
TEST(AdaptiveBoundary, ZeroEnergyTraceTerminatesPromptly)
{
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);

    const energy::PowerTrace dead(20e-6,
                                  std::vector<double>(1000, 0.0));

    const auto t0 = std::chrono::steady_clock::now();
    nvp::SystemSim sim(cfg, shaTrace(), dead, false);
    const nvp::RunResult res = sim.run();
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();

    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.outages, 0u);    // never even booted
    EXPECT_EQ(res.on_cycles, 0u);
    // Generous bound: the bailout makes this milliseconds; without it
    // the initial charge-up alone runs for minutes.
    EXPECT_LT(secs, 10.0);
}

} // namespace
