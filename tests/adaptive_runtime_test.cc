/** @file Unit tests for the boot-time adaptive runtime (paper §4). */

#include <gtest/gtest.h>

#include "core/adaptive_runtime.hh"

using namespace wlcache;
using namespace wlcache::core;

namespace {

AdaptiveConfig
cfg(double delta = 0.15, unsigned lo = 2, unsigned hi = 6)
{
    AdaptiveConfig c;
    c.delta = delta;
    c.maxline_min = lo;
    c.maxline_max = hi;
    return c;
}

} // namespace

TEST(AdaptiveRuntime, NoChangeBeforeTwoMeasurements)
{
    AdaptiveRuntime rt(cfg(), 4);
    EXPECT_EQ(rt.onBoot(100e-6), 4u);
    EXPECT_EQ(rt.reconfigurations(), 0u);
}

TEST(AdaptiveRuntime, RaisesOnSignificantlyLongerOnTime)
{
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(100e-6);
    EXPECT_EQ(rt.onBoot(200e-6), 5u);  // +100% >> delta
    EXPECT_EQ(rt.reconfigurations(), 1u);
}

TEST(AdaptiveRuntime, LowersOnSignificantlyShorterOnTime)
{
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(200e-6);
    EXPECT_EQ(rt.onBoot(100e-6), 3u);
}

TEST(AdaptiveRuntime, KeepsWithinDeltaBand)
{
    AdaptiveRuntime rt(cfg(0.15), 4);
    rt.onBoot(100e-6);
    EXPECT_EQ(rt.onBoot(110e-6), 4u);  // +10% < 15%
    EXPECT_EQ(rt.onBoot(101e-6), 4u);  // -8% > -15%
    EXPECT_EQ(rt.reconfigurations(), 0u);
}

TEST(AdaptiveRuntime, ClampsAtBounds)
{
    AdaptiveRuntime rt(cfg(), 6);
    rt.onBoot(100e-6);
    EXPECT_EQ(rt.onBoot(500e-6), 6u);  // already at max
    AdaptiveRuntime lo(cfg(), 2);
    lo.onBoot(500e-6);
    EXPECT_EQ(lo.onBoot(50e-6), 2u);  // already at min
}

TEST(AdaptiveRuntime, TracksObservedRange)
{
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(100e-6);
    rt.onBoot(300e-6);  // raise -> 5, cooldown armed
    rt.onBoot(50e-6);   // cooldown: re-baseline only
    rt.onBoot(10e-6);   // 50 -> 10 significant drop: lower -> 4
    rt.onBoot(9e-6);    // cooldown
    rt.onBoot(2e-6);    // lower -> 3
    EXPECT_EQ(rt.observedMaxlineMax(), 5u);
    EXPECT_EQ(rt.observedMaxlineMin(), 3u);
}

TEST(AdaptiveRuntime, CooldownAfterReconfiguration)
{
    // Changing maxline moves Von, which changes the next interval's
    // length for reasons that have nothing to do with the source;
    // the interval right after a change must not trigger another
    // change (no ratcheting).
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(100e-6);
    EXPECT_EQ(rt.onBoot(300e-6), 5u);  // raise
    EXPECT_EQ(rt.onBoot(50e-6), 5u);   // cooldown: held
    EXPECT_EQ(rt.reconfigurations(), 1u);
}

TEST(AdaptiveRuntime, DisabledNeverReconfigures)
{
    AdaptiveConfig c = cfg();
    c.enabled = false;
    AdaptiveRuntime rt(c, 4);
    rt.onBoot(100e-6);
    EXPECT_EQ(rt.onBoot(900e-6), 4u);
    EXPECT_EQ(rt.reconfigurations(), 0u);
}

TEST(AdaptiveRuntime, QuantizationMatchesWatchdogResolution)
{
    AdaptiveRuntime rt(cfg(), 4);
    EXPECT_EQ(rt.quantize(100.0e-6), 100u);   // 1 us ticks
    EXPECT_EQ(rt.quantize(65.6e-3), 65535u);  // saturates at 2 bytes
    EXPECT_EQ(rt.quantize(-1.0), 0u);
}

TEST(AdaptiveRuntime, QuantizationLimitsSensitivity)
{
    // Durations below one watchdog tick are indistinguishable.
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(0.4e-6);
    EXPECT_EQ(rt.onBoot(0.3e-6), 4u);  // both quantize to 0
}

TEST(AdaptiveRuntime, PredictionAccuracyPerfectWhenTrendsHold)
{
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(100e-6);
    rt.onBoot(200e-6);  // raise, predicts continued quality
    rt.onBoot(210e-6);  // held -> correct
    EXPECT_DOUBLE_EQ(rt.predictionAccuracy(), 1.0);
}

TEST(AdaptiveRuntime, PredictionAccuracyDropsOnReversal)
{
    AdaptiveRuntime rt(cfg(), 4);
    rt.onBoot(100e-6);
    rt.onBoot(300e-6);  // raise
    rt.onBoot(20e-6);   // collapse -> that raise was wrong
    EXPECT_LT(rt.predictionAccuracy(), 1.0);
}

TEST(AdaptiveRuntime, InitialMaxlineClampedToBounds)
{
    AdaptiveRuntime rt(cfg(0.15, 2, 6), 9);
    EXPECT_EQ(rt.maxline(), 6u);
}

TEST(AdaptiveRuntime, NvffFootprintMatchesPaper)
{
    // §5.5: 1 byte each for maxline/waterline and two 2-byte timers.
    EXPECT_EQ(AdaptiveRuntime::kNvffBytes, 6u);
}
