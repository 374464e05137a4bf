/** @file Unit tests for energy: capacitor, power traces, harvester,
 *  energy meter. */

#include <gtest/gtest.h>

#include <sstream>

#include "energy/capacitor.hh"
#include "energy/energy_meter.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

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
            if (amt > room * 1.001 + 1e-15)
                EXPECT_DOUBLE_EQ(c.storedEnergy(),
                                 c.energyBetween(0.0, c.vmax()));

            const double before_draw = c.storedEnergy();
            const double drawn = c.drawEnergy(amt);
            EXPECT_DOUBLE_EQ(drawn,
                             before_draw - c.storedEnergy())
                << "draw v0=" << v0 << " amt=" << amt;
            EXPECT_LE(drawn, amt + 1e-18);
            EXPECT_GE(c.storedEnergy(), 0.0);
            if (amt > before_draw * 1.001 + 1e-15)
                EXPECT_DOUBLE_EQ(c.storedEnergy(), 0.0);
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
