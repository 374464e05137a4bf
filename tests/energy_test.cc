/** @file Unit tests for energy: capacitor, power traces, harvester,
 *  energy meter. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "energy/capacitor.hh"
#include "energy/energy_meter.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "util/strings.hh"

using namespace wlcache;
using namespace wlcache::energy;

namespace {

Capacitor
paperCap()
{
    return Capacitor(1.0e-6, 2.8, 3.5);
}

} // namespace

TEST(Capacitor, StartsAtVmin)
{
    auto c = paperCap();
    EXPECT_NEAR(c.voltage(), 2.8, 1e-9);
    EXPECT_NEAR(c.energyAboveVmin(), 0.0, 1e-15);
}

TEST(Capacitor, EnergyVoltageRoundTrip)
{
    auto c = paperCap();
    c.setVoltage(3.3);
    EXPECT_NEAR(c.voltage(), 3.3, 1e-12);
    EXPECT_NEAR(c.storedEnergy(), 0.5 * 1e-6 * 3.3 * 3.3, 1e-12);
}

TEST(Capacitor, PaperUsableEnergy)
{
    // Table 2: 1 uF between 2.8 V and 3.5 V holds ~2.2 uJ usable.
    auto c = paperCap();
    EXPECT_NEAR(c.energyBetween(2.8, 3.5), 2.2e-6, 0.01e-6);
}

TEST(Capacitor, AddEnergyClampsAtVmax)
{
    auto c = paperCap();
    c.setVoltage(3.49);
    const double absorbed = c.addEnergy(1.0);  // absurd surplus
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
    EXPECT_LT(absorbed, 1.0e-6);
}

TEST(Capacitor, DrawEnergyUnderflow)
{
    auto c = paperCap();
    // An over-demand bottoms out at the 0 V rail and reports exactly
    // the energy that was actually there, not the request.
    const double stored = c.storedEnergy();
    EXPECT_DOUBLE_EQ(c.drawEnergy(1.0), stored);
    EXPECT_NEAR(c.storedEnergy(), 0.0, 1e-15);
    EXPECT_TRUE(c.brownedOut());
}

TEST(Capacitor, DrawEnergySuccess)
{
    auto c = paperCap();
    c.setVoltage(3.5);
    EXPECT_DOUBLE_EQ(c.drawEnergy(1.0e-6), 1.0e-6);
    EXPECT_LT(c.voltage(), 3.5);
    EXPECT_FALSE(c.brownedOut());
}

TEST(Capacitor, RailAccountingProperty)
{
    // Every add/draw must return exactly the change in stored energy,
    // across deposits and demands that stay inside the rails, clamp
    // at Vmax, or bottom out at 0 V. Integrating the return values
    // must therefore track the buffer level with zero drift.
    const double starts[] = { 0.0, 1.0, 2.8, 3.2, 3.4999, 3.5 };
    const double amounts[] = { 0.0,    1.0e-12, 3.0e-9, 1.0e-7,
                               1.0e-6, 5.0e-6,  1.0e-3, 1.0 };
    for (const double v0 : starts) {
        for (const double amt : amounts) {
            auto c = paperCap();
            c.setVoltage(v0);
            const double room =
                c.energyBetween(c.voltage(), c.vmax());
            const double before_add = c.storedEnergy();
            const double absorbed = c.addEnergy(amt);
            EXPECT_DOUBLE_EQ(absorbed,
                             c.storedEnergy() - before_add)
                << "add v0=" << v0 << " amt=" << amt;
            EXPECT_LE(absorbed, amt + 1e-18);
            EXPECT_LE(c.voltage(), c.vmax() + 1e-12);
            // A genuinely saturated deposit lands exactly on the
            // rail energy (not one rounded add above or below it).
            if (amt > room * 1.001 + 1e-15) {
                EXPECT_DOUBLE_EQ(c.storedEnergy(),
                                 c.energyBetween(0.0, c.vmax()));
            }

            const double before_draw = c.storedEnergy();
            const double drawn = c.drawEnergy(amt);
            EXPECT_DOUBLE_EQ(drawn,
                             before_draw - c.storedEnergy())
                << "draw v0=" << v0 << " amt=" << amt;
            EXPECT_LE(drawn, amt + 1e-18);
            EXPECT_GE(c.storedEnergy(), 0.0);
            if (amt > before_draw * 1.001 + 1e-15) {
                EXPECT_DOUBLE_EQ(c.storedEnergy(), 0.0);
            }
        }
    }
}

TEST(Capacitor, VoltageForEnergyAbove)
{
    auto c = paperCap();
    const double v = c.voltageForEnergyAbove(2.8, 1.0e-6);
    EXPECT_NEAR(c.energyBetween(2.8, v), 1.0e-6, 1e-12);
    // Clamps at vmax.
    EXPECT_DOUBLE_EQ(c.voltageForEnergyAbove(2.8, 1.0), 3.5);
}

TEST(PowerTrace, PowerAtWraps)
{
    PowerTrace t(1.0, { 1.0, 2.0, 3.0 });
    EXPECT_DOUBLE_EQ(t.powerAt(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.powerAt(2.5), 3.0);
    EXPECT_DOUBLE_EQ(t.powerAt(3.5), 1.0);  // wrapped
    EXPECT_DOUBLE_EQ(t.duration(), 3.0);
}

TEST(PowerTrace, MeanPower)
{
    PowerTrace t(1.0, { 1.0, 3.0 });
    EXPECT_DOUBLE_EQ(t.meanPower(), 2.0);
}

TEST(PowerTrace, SaveLoadRoundTrip)
{
    PowerTrace t(0.5e-3, { 0.1, 0.2, 0.3 });
    std::stringstream ss;
    t.save(ss);
    const PowerTrace u = PowerTrace::load(ss);
    EXPECT_DOUBLE_EQ(u.samplePeriod(), 0.5e-3);
    ASSERT_EQ(u.numSamples(), 3u);
    EXPECT_DOUBLE_EQ(u.samples()[1], 0.2);

    // save() writes full precision: a synthetic trace written by
    // power_trace_tool and read back reproduces the identical
    // waveform, byte for byte.
    const PowerTrace gen = makeTrace(TraceKind::RfOffice);
    std::stringstream first;
    gen.save(first);
    const PowerTrace reloaded = PowerTrace::load(first);
    EXPECT_EQ(reloaded.samples(), gen.samples());
    EXPECT_EQ(reloaded.samplePeriod(), gen.samplePeriod());
    std::stringstream second;
    reloaded.save(second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(PowerTrace, SampleCountIsCheckedBeforeConversion)
{
    TraceGenConfig cfg;
    const double max = static_cast<double>(kMaxTraceSamples);
    cfg.duration_s = (max + 0.5) * cfg.sample_period_s;
    EXPECT_EQ(makeTrace(TraceKind::RfHome, cfg).numSamples(),
              kMaxTraceSamples);
    for (const double d : { (max + 1.5) * cfg.sample_period_s, 1e15, -1.0,
                            std::nan("") }) {
        cfg.duration_s = d;
        EXPECT_DEATH(makeTrace(TraceKind::Constant, cfg), "samples, not")
            << d;
    }
}

TEST(PowerTrace, GeneratorsDeterministic)
{
    TraceGenConfig cfg;
    cfg.seed = 5;
    const auto a = makeTrace(TraceKind::RfHome, cfg);
    const auto b = makeTrace(TraceKind::RfHome, cfg);
    ASSERT_EQ(a.numSamples(), b.numSamples());
    EXPECT_EQ(a.samples(), b.samples());
}

TEST(PowerTrace, SampleStreamsMatchPinnedDigests)
{
    // fnv1a128 of samples() as the eager generators wrote them: a
    // generator that draws its random stream in another order, or
    // derives another length, changes every run under that trace.
    struct Pin
    {
        TraceKind kind;
        std::uint64_t seed;
        double duration_s;
        std::size_t samples;
        const char *digest;
    };
    static const Pin pins[] = {
        { TraceKind::RfHome, 1, 2, 99999,
          "d209fe77055fbe747991cf0631385cec" },
        { TraceKind::RfHome, 1, 0.5, 24999,
          "e1e8a7e94c67f8882c7a3b5d4369d934" },
        { TraceKind::RfHome, 1, 0.0013, 64,
          "bc70048533505cd93d0a87f2b7a97f87" },
        { TraceKind::RfHome, 7, 2, 99999,
          "2bad38a445fdabe8718e9b08ea15ccf8" },
        { TraceKind::RfHome, 7, 0.5, 24999,
          "4976457955285db168b4aa5539b6e2e7" },
        { TraceKind::RfHome, 7, 0.0013, 64,
          "2d6d599fdd8014fc7268f381d210cc70" },
        { TraceKind::RfHome, 42, 2, 99999,
          "927987713f696fc6749540d444b6db3a" },
        { TraceKind::RfHome, 42, 0.5, 24999,
          "4a4619ee5fed6a4c445cf93697983340" },
        { TraceKind::RfHome, 42, 0.0013, 64,
          "428e1a3178d18b56b9a1a0418855ad96" },
        { TraceKind::RfOffice, 1, 2, 99999,
          "26bcf6738fda4e3ce11fde81cbb419e0" },
        { TraceKind::RfOffice, 1, 0.5, 24999,
          "5ad027585fa6cf8995424cb01c12e863" },
        { TraceKind::RfOffice, 1, 0.0013, 64,
          "c1e83c5575e66c6bfb0103e865401229" },
        { TraceKind::RfOffice, 7, 2, 99999,
          "f67fd0b60c8ce9569f011c81f7de0d4a" },
        { TraceKind::RfOffice, 7, 0.5, 24999,
          "fcc5e19c9e828160f560258854aa3a48" },
        { TraceKind::RfOffice, 7, 0.0013, 64,
          "7836fd261fd655b54e11b5da43c196a7" },
        { TraceKind::RfOffice, 42, 2, 99999,
          "7d0f9f72dc22e119170d92ac760e32cb" },
        { TraceKind::RfOffice, 42, 0.5, 24999,
          "cfd9f803a0d2bf5ae1c90651a711b5b6" },
        { TraceKind::RfOffice, 42, 0.0013, 64,
          "16adceae32ec7e00f38410cda497e160" },
        { TraceKind::RfMementos, 1, 2, 99999,
          "f9e6a6757f1e16644037dc257efac458" },
        { TraceKind::RfMementos, 1, 0.5, 24999,
          "7bca5c21850acb4958ba43950ffbe9f7" },
        { TraceKind::RfMementos, 1, 0.0013, 64,
          "34e3a155f46df21fff509662c35ea8a5" },
        { TraceKind::RfMementos, 7, 2, 99999,
          "f1ae21efab040f3fe4c1e1d32260bb81" },
        { TraceKind::RfMementos, 7, 0.5, 24999,
          "3f99756ed172e386e72bae3fbe8db0d2" },
        { TraceKind::RfMementos, 7, 0.0013, 64,
          "8a60f427de20830e6a2879cb70a4c316" },
        { TraceKind::RfMementos, 42, 2, 99999,
          "75720cf0088166642beab9ebacd15964" },
        { TraceKind::RfMementos, 42, 0.5, 24999,
          "e3c91d017e5b2d920f9c912d01fbd33e" },
        { TraceKind::RfMementos, 42, 0.0013, 64,
          "70559adafc2d6b1b025448bd0410bf4d" },
        { TraceKind::Solar, 1, 2, 99999,
          "756c0c7c7f8d8c16147b68f84e9e6fba" },
        { TraceKind::Solar, 1, 0.5, 24999,
          "28422249b0ced314f0e4a0a20ddf6fdc" },
        { TraceKind::Solar, 1, 0.0013, 64,
          "3655630116891641c030bf002e2983f3" },
        { TraceKind::Solar, 7, 2, 99999,
          "c54dbee978793c37cc811cab92f7dbf9" },
        { TraceKind::Solar, 7, 0.5, 24999,
          "9b5ffc130f648115baaa09ff1ae7e1cb" },
        { TraceKind::Solar, 7, 0.0013, 64,
          "3655630116891641c030bf002e2983f3" },
        { TraceKind::Solar, 42, 2, 99999,
          "7653f89485dbca64450f833213074300" },
        { TraceKind::Solar, 42, 0.5, 24999,
          "6271840aa18a2b3e6c2e8f70e3a3ae7e" },
        { TraceKind::Solar, 42, 0.0013, 64,
          "3655630116891641c030bf002e2983f3" },
        { TraceKind::Thermal, 1, 2, 99999,
          "deb82127bff1bc041ba3535b00332b68" },
        { TraceKind::Thermal, 1, 0.5, 24999,
          "67de82d06ba314ac1e27620341b17f34" },
        { TraceKind::Thermal, 1, 0.0013, 64,
          "fd14efdd8c59a4ae5fc397cddeeac22a" },
        { TraceKind::Thermal, 7, 2, 99999,
          "280d14875cce6915f71a87717dc76bd3" },
        { TraceKind::Thermal, 7, 0.5, 24999,
          "285c984de533cd769b2781274e47824e" },
        { TraceKind::Thermal, 7, 0.0013, 64,
          "3335f6f1031732187b6d6d9e8685b624" },
        { TraceKind::Thermal, 42, 2, 99999,
          "4d88e5706369ec0ff8a188d930aee41d" },
        { TraceKind::Thermal, 42, 0.5, 24999,
          "770b94c271c187eb9d28f954644c90f5" },
        { TraceKind::Thermal, 42, 0.0013, 64,
          "a16cc037876d56d05d4edf171341bf94" },
        { TraceKind::Constant, 1, 2, 99999,
          "3ceedf2ebbba60f3b4a279115fafa851" },
        { TraceKind::Constant, 1, 0.5, 24999,
          "10bb194a4c9c2ef39e40c77e2dbbd731" },
        { TraceKind::Constant, 1, 0.0013, 64,
          "8afa1e83bf6c9325fa2f52d23ee6994f" },
        { TraceKind::Constant, 7, 2, 99999,
          "3ceedf2ebbba60f3b4a279115fafa851" },
        { TraceKind::Constant, 7, 0.5, 24999,
          "10bb194a4c9c2ef39e40c77e2dbbd731" },
        { TraceKind::Constant, 7, 0.0013, 64,
          "8afa1e83bf6c9325fa2f52d23ee6994f" },
        { TraceKind::Constant, 42, 2, 99999,
          "3ceedf2ebbba60f3b4a279115fafa851" },
        { TraceKind::Constant, 42, 0.5, 24999,
          "10bb194a4c9c2ef39e40c77e2dbbd731" },
        { TraceKind::Constant, 42, 0.0013, 64,
          "8afa1e83bf6c9325fa2f52d23ee6994f" },
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(traceKindName(pin.kind)) + " seed " +
                     std::to_string(pin.seed) + " " +
                     std::to_string(pin.duration_s) + " s");
        TraceGenConfig cfg;
        cfg.seed = pin.seed;
        cfg.duration_s = pin.duration_s;
        const PowerTrace t = makeTrace(pin.kind, cfg);
        EXPECT_EQ(t.numSamples(), pin.samples);
        const std::vector<double> s = t.samples();
        EXPECT_EQ(util::fnv1a128Hex(s.data(), s.size() * sizeof(double)),
                  pin.digest);
    }
}

TEST(PowerTrace, StabilityOrderingMatchesPaper)
{
    // Paper: thermal/solar stable and strong; tr.3 the most unstable.
    TraceGenConfig cfg;
    const auto tr1 = makeTrace(TraceKind::RfHome, cfg);
    const auto tr2 = makeTrace(TraceKind::RfOffice, cfg);
    const auto tr3 = makeTrace(TraceKind::RfMementos, cfg);
    const auto solar = makeTrace(TraceKind::Solar, cfg);
    const auto thermal = makeTrace(TraceKind::Thermal, cfg);

    EXPECT_GT(solar.meanPower(), tr1.meanPower());
    EXPECT_GT(thermal.meanPower(), tr1.meanPower());
    EXPECT_GT(tr1.meanPower(), tr3.meanPower());
    EXPECT_GT(tr2.variationCoefficient(), tr1.variationCoefficient());
    EXPECT_GT(tr3.variationCoefficient(), tr2.variationCoefficient());
    EXPECT_LT(thermal.variationCoefficient(),
              solar.variationCoefficient());
}

TEST(PowerTrace, ConstantKind)
{
    TraceGenConfig cfg;
    const auto t = makeTrace(TraceKind::Constant, cfg, 7.0e-3);
    EXPECT_NEAR(t.meanPower(), 7.0e-3, 1e-12);
    EXPECT_NEAR(t.variationCoefficient(), 0.0, 1e-9);
}

TEST(PowerTrace, KindNames)
{
    EXPECT_STREQ(traceKindName(TraceKind::RfHome), "trace1");
    EXPECT_STREQ(traceKindName(TraceKind::RfMementos), "trace3");
    EXPECT_STREQ(traceKindName(TraceKind::Thermal), "thermal");
}

TEST(Harvester, AdvanceDepositsPower)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);  // huge: nothing clamps
    const double dep = h.advance(1.0e-3, c);
    EXPECT_NEAR(dep, 10.0e-6, 1e-12);
    EXPECT_NEAR(h.now(), 1.0e-3, 1e-12);
}

TEST(Harvester, EfficiencyApplied)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 0.5);
    Capacitor c(1.0, 0.0, 100.0);
    EXPECT_NEAR(h.advance(1.0e-3, c), 5.0e-6, 1e-12);
}

TEST(Harvester, AdvanceClampsAtFullCapacitor)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 1.0);
    auto c = paperCap();  // only ~2.2 uJ of room
    const double dep = h.advance(1.0, c);  // 10 mJ offered
    EXPECT_NEAR(dep, c.energyBetween(2.8, 3.5), 1e-12);
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
}

TEST(Harvester, AdvanceCrossesSampleBoundaries)
{
    PowerTrace t(1.0e-3, { 10.0e-3, 0.0 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    // 2 ms spanning one full on-sample and one off-sample.
    const double dep = h.advance(2.0e-3, c);
    EXPECT_NEAR(dep, 10.0e-6, 1e-10);
}

TEST(Harvester, ChargeUntilReachesTarget)
{
    PowerTrace t(1.0, { 20.0e-3 });
    Harvester h(t, 1.0);
    auto c = paperCap();
    const double needed = c.energyBetween(2.8, 3.3);
    const double secs = h.chargeUntil(c, 3.3);
    // Charging lands on a whole-cycle boundary at or just past the
    // target, so the final voltage can overshoot by up to one cycle's
    // deposit (20 mW * 1 ns ~ 2e-11 J ~ 6 uV here) and the charge
    // time by up to one cycle (1 ns).
    EXPECT_GE(c.voltage(), 3.3 - 1e-9);
    EXPECT_NEAR(c.voltage(), 3.3, 1e-5);
    EXPECT_NEAR(secs, needed / 20.0e-3, 2e-9);
}

TEST(Harvester, ChargeUntilGivesUpOnDeadTrace)
{
    PowerTrace t(1.0, { 0.0 });
    Harvester h(t, 1.0);
    auto c = paperCap();
    const double secs = h.chargeUntil(c, 3.3, 5.0);
    EXPECT_LT(c.voltage(), 3.3);
    // One full trace pass with zero deposit proves the environment is
    // dead: the harvester gives up right there instead of stepping
    // zero-power samples until the max_wait limit.
    EXPECT_GE(secs, 1.0 - 1e-9);
    EXPECT_LT(secs, 5.0);
}

TEST(Harvester, InfiniteModeTopsUp)
{
    PowerTrace t(1.0, { 0.0 });
    Harvester h(t, 1.0, /*infinite=*/true);
    auto c = paperCap();
    h.advance(1.0e-9, c);
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
    EXPECT_DOUBLE_EQ(h.chargeUntil(c, 3.5), 0.0);
}

TEST(Harvester, CurrentPowerFreshAtSampleBoundary)
{
    PowerTrace t(1.0e-3, { 10.0e-3, 20.0e-3 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    // Land exactly on the first sample boundary: the cursor must
    // already be in the next sample, so currentPower() reads the new
    // sample's power rather than a stale value from the one just
    // finished.
    h.advance(1.0e-3, c);
    EXPECT_DOUBLE_EQ(h.currentPower(), 20.0e-3);
    h.advance(1.0e-3, c);  // wraps back to sample 0
    EXPECT_DOUBLE_EQ(h.currentPower(), 10.0e-3);
}

TEST(Harvester, LongHorizonConservation)
{
    // Many tiny steps whose size does not divide the sample period:
    // the in-sample position is rebased at every boundary crossing,
    // so the accumulated phase cannot drift against the trace and the
    // total deposit stays locked to mean power over long horizons.
    PowerTrace t(1.0e-3, { 10.0e-3, 0.0 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    const double dt = 0.3e-3;
    const int steps = 200000;  // 60 s = 30000 trace periods
    double deposited = 0.0;
    for (int i = 0; i < steps; ++i)
        deposited += h.advance(dt, c);
    const double horizon = dt * steps;
    const double expect = t.meanPower() * horizon;
    EXPECT_NEAR(h.now(), horizon, 1e-6);
    EXPECT_NEAR(deposited, expect, 1e-6 * expect);
    // The running accumulator is an exact integer attojoule count;
    // FP-summing 200k per-call joule returns reintroduces rounding,
    // so the two agree to summation error, not bit-exactly.
    EXPECT_NEAR(h.totalHarvested(), deposited, 1e-9 * expect);
}

TEST(Harvester, LongAdvanceMatchesMeanPower)
{
    TraceGenConfig cfg;
    cfg.seed = 3;
    const auto t = makeTrace(TraceKind::RfHome, cfg);
    Harvester h(t, 1.0);
    // Huge capacitor so nothing clamps.
    Capacitor c(1.0, 0.0, 100.0);
    const double dep = h.advance(t.duration(), c);
    EXPECT_NEAR(dep, t.meanPower() * t.duration(),
                0.01 * t.meanPower() * t.duration());
}

TEST(Harvester, IoStateRestoresTheSampleRate)
{
    // The per-cycle rate is cached for the current sample only, so a
    // restored cursor must refresh it: a fresh harvester starts on
    // sample 0's rate, which differs from every later sample here.
    PowerTrace t(20.0e-6, { 1.0e-3, 5.0e-3, 0.0, 9.0e-3, 3.0e-3 });
    const Cycle period = 20000;
    for (const Cycle cut : { period + period / 2, 2 * period }) {
        SCOPED_TRACE(cut);
        Harvester saved(t, 0.7);
        Capacitor saved_cap(1.0, 0.0, 100.0);
        saved.advanceCycles(cut, saved_cap);
        SnapshotWriter w;
        StateIo::save(saved, w);
        const std::vector<std::uint8_t> bytes = w.take();

        Harvester restored(t, 0.7);
        SnapshotReader r(bytes);
        StateIo::load(restored, r);
        EXPECT_TRUE(r.atEnd());
        // Both capacitors are far from the rail, so deposits never
        // clamp and depend on the rate alone.
        Capacitor restored_cap(1.0, 0.0, 100.0);

        for (int step = 0; step < 12; ++step) {
            SCOPED_TRACE(step);
            EXPECT_EQ(restored.currentRateAj(), saved.currentRateAj());
            EXPECT_EQ(restored.advanceCycles(period / 2, restored_cap),
                      saved.advanceCycles(period / 2, saved_cap));
        }
        EXPECT_EQ(restored.totalHarvestedAj(), saved.totalHarvestedAj());
    }
}

namespace {

/** What a harvester reports after one step of a driveHarvester() script. */
struct HarvestStep
{
    Attojoules result;       //!< Deposit, or chargeUntil() seconds' bits.
    double power_w;
    Attojoules rate_aj;
    Attojoules stored_aj;
    std::vector<std::uint8_t> harv;  //!< The HARV snapshot bytes.

    bool operator==(const HarvestStep &) const = default;
};

/**
 * Drive a harvester over @p trace with a script drawn from @p seed:
 * random chunked advances (zero, sub-sample, whole-sample and
 * multi-sample spans), capacitor draws, chargeUntil() in both step
 * modes, one reset() and two snapshot reloads into a fresh harvester.
 * With @p restore false the reset is a fresh harvester and the reloads
 * are skipped, which must not change a step. The script depends only
 * on @p seed, so two traces with the same samples give the same steps.
 */
std::vector<HarvestStep>
driveHarvester(const PowerTrace &trace, std::uint64_t seed,
               bool restore = true)
{
    Rng rng(seed);
    std::optional<Harvester> h;
    h.emplace(trace, 0.7);
    Capacitor cap(1.0e-6, 2.8, 3.5);
    const Cycle period = h->periodCycles();
    const auto harvBytes = [&h] {
        SnapshotWriter w;
        StateIo::save(*h, w);
        return w.take();
    };
    std::vector<HarvestStep> steps;
    for (int i = 0; i < 400; ++i) {
        Attojoules result = 0;
        if (i == 150) {
            if (restore)
                h->reset();
            else
                h.emplace(trace, 0.7);
        } else if (i == 100 || i == 290) {
            if (restore) {
                const std::vector<std::uint8_t> bytes = harvBytes();
                h.emplace(trace, 0.7);
                SnapshotReader r(bytes);
                StateIo::load(*h, r);
                EXPECT_TRUE(r.atEnd());
            }
        } else {
            switch (rng.nextBelow(8)) {
              case 0:
                result = h->advanceCycles(0, cap);
                break;
              case 1:
                result = h->advanceCycles(period * rng.nextBelow(3), cap);
                break;
              case 2:
                result = cap.drawAj(rng.nextBelow(cap.storedAj() + 1));
                break;
              case 3:
              case 4: {
                const StepMode mode = i % 2 ? StepMode::SkipAhead
                                            : StepMode::Percycle;
                const double secs = h->chargeUntil(
                    cap, rng.nextDouble(2.8, 3.5), 1.0e4, mode);
                std::memcpy(&result, &secs, sizeof(secs));
                break;
              }
              default:
                result = h->advanceCycles(rng.nextBelow(3 * period), cap);
                break;
            }
        }
        steps.push_back({ result, h->currentPower(), h->currentRateAj(),
                          cap.storedAj(), harvBytes() });
    }
    return steps;
}

/** Short traces wrap many times inside one driveHarvester() script. */
TraceGenConfig
shortTrace(std::uint64_t seed)
{
    TraceGenConfig cfg;
    cfg.seed = seed;
    cfg.duration_s = 65.5 * cfg.sample_period_s;  // 65 samples
    return cfg;
}

void
expectSameSteps(const std::vector<HarvestStep> &got,
                const std::vector<HarvestStep> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(got[i] == want[i]) << "first difference at step " << i;
}

} // namespace

TEST(Harvester, LazyTraceMatchesItsStoredSamples)
{
    // A harvester reads a synthetic trace through its own cursor,
    // restarting it on a wrap and regenerating forward on reset() and
    // on a snapshot load; it must see exactly the samples it would
    // read from the same trace stored as a vector, driven without
    // resets or reloads.
    const PowerTrace traces[] = {
        makeTrace(TraceKind::RfHome, shortTrace(1)),
        makeTrace(TraceKind::RfMementos, shortTrace(9)),
        makeTrace(TraceKind::Solar, shortTrace(2)),
        makeTrace(TraceKind::Thermal, shortTrace(3)),
        makeTrace(TraceKind::RfOffice),  // 2 s: reloads seek far in
    };
    ASSERT_EQ(traces[0].numSamples(), 65u);
    for (const PowerTrace &lazy : traces) {
        SCOPED_TRACE(lazy.numSamples());
        const PowerTrace stored(lazy.samplePeriod(), lazy.samples());
        for (const std::uint64_t seed : { 1, 2 }) {
            SCOPED_TRACE(seed);
            const std::vector<HarvestStep> steps =
                driveHarvester(lazy, seed);
            expectSameSteps(steps, driveHarvester(stored, seed, false));
            if (lazy.numSamples() == 65) {
                // The script ran past the end of the trace.
                SnapshotReader r(steps.back().harv);
                r.section("HARV");
                EXPECT_GT(r.u64(), 2 * 65 * Cycle{ 20000 });
            }
        }
    }
}

TEST(Harvester, ThreadsShareOneConstTrace)
{
    // Each harvester owns its cursor and the trace is never written,
    // so harvesters on several threads can read one trace at once.
    const PowerTrace trace = makeTrace(TraceKind::RfOffice, shortTrace(4));
    const std::vector<HarvestStep> one = driveHarvester(trace, 1);
    const std::vector<HarvestStep> two = driveHarvester(trace, 2);
    std::vector<HarvestStep> got_one, got_two;
    std::thread a([&] { got_one = driveHarvester(trace, 1); });
    std::thread b([&] { got_two = driveHarvester(trace, 2); });
    a.join();
    b.join();
    expectSameSteps(got_one, one);
    expectSameSteps(got_two, two);
}

TEST(EnergyMeter, AccumulatesByCategory)
{
    EnergyMeter m;
    m.add(EnergyCategory::Compute, 1.0e-9);
    m.add(EnergyCategory::Compute, 2.0e-9);
    m.add(EnergyCategory::MemWrite, 5.0e-9);
    EXPECT_NEAR(m.get(EnergyCategory::Compute), 3.0e-9, 1e-18);
    EXPECT_NEAR(m.total(), 8.0e-9, 1e-18);
}

TEST(EnergyMeter, ResetZeroes)
{
    EnergyMeter m;
    m.add(EnergyCategory::Leakage, 1.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

TEST(EnergyMeter, RunningTotalIsTheCategorySum)
{
    // totalAj() is a running sum kept beside the categories; it must
    // equal their sum after adds, reset() and a snapshot load, and
    // it must not reach the METR bytes.
    constexpr std::size_t n = EnergyMeter::kNumCategories;
    const auto sum = [](const EnergyMeter &m) {
        Attojoules s = 0;
        for (std::size_t c = 0; c < n; ++c)
            s += m.getAj(static_cast<EnergyCategory>(c));
        return s;
    };
    const auto bytes = [](const EnergyMeter &m) {
        SnapshotWriter w;
        StateIo::save(m, w);
        return w.take();
    };
    // The same random adds, applied to @p m.
    const auto addRandom = [](EnergyMeter &m, std::uint64_t seed) {
        Rng rng(seed);
        for (int i = 0; i < 500; ++i) {
            const auto cat = static_cast<EnergyCategory>(rng.nextBelow(n));
            if (rng.nextBool())
                m.addAj(cat, rng.nextBelow(1'000'000'000));
            else
                m.add(cat, rng.nextDouble(0.0, 1.0e-6));
        }
    };

    EnergyMeter a;
    addRandom(a, 1);
    EXPECT_EQ(a.totalAj(), sum(a));
    EXPECT_GT(a.totalAj(), 0u);

    EnergyMeter same;
    addRandom(same, 1);
    EXPECT_EQ(bytes(same), bytes(a));

    EnergyMeter cleared;
    addRandom(cleared, 2);
    cleared.reset();
    EXPECT_EQ(cleared.totalAj(), 0u);
    EXPECT_EQ(cleared.totalAj(), sum(cleared));
    addRandom(cleared, 1);
    EXPECT_EQ(cleared.totalAj(), a.totalAj());
    EXPECT_EQ(bytes(cleared), bytes(a));

    EnergyMeter loaded;
    addRandom(loaded, 3);
    const std::vector<std::uint8_t> saved = bytes(a);
    SnapshotReader r(saved);
    StateIo::load(loaded, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(loaded.totalAj(), sum(loaded));
    EXPECT_EQ(loaded.totalAj(), a.totalAj());
    EXPECT_EQ(bytes(loaded), saved);
    // Adds after the load keep the total in step.
    loaded.addAj(EnergyCategory::Restore, 12345);
    a.addAj(EnergyCategory::Restore, 12345);
    EXPECT_EQ(loaded.totalAj(), sum(loaded));
    EXPECT_EQ(bytes(loaded), bytes(a));
}

TEST(EnergyMeter, CategoryNames)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::CacheRead),
                 "cache_read");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Checkpoint),
                 "checkpoint");
}
