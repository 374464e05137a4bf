/**
 * @file
 * Property tests for the closed-form energy solvers that skip_ahead
 * mode leans on (DESIGN.md §15). Every property is of the form
 * "closed form == per-cycle scan, EXACTLY" — integer attojoule
 * arithmetic makes exact equality meaningful, and the per-cycle side
 * is the same code path the percycle reference loop executes, so a
 * failure here is a failure the differential system harness would
 * eventually hit too, minimized to one component.
 *
 * Covered corners: partition invariance across arbitrary split points
 * (including sample edges), the Vmax rail clamp mid-span, zero-power
 * samples, threshold targets that land exactly on a cycle vs. between
 * cycles, the charge-until timeout, saturating leakage math, and the
 * libm-free quantizer against std::llround.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "energy/attojoule.hh"
#include "energy/capacitor.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

using namespace wlcache;
using namespace wlcache::energy;

namespace {

/** A harvester/capacitor pair in lock-step-comparable state. */
struct Rig
{
    Capacitor cap;
    Harvester harv;

    Rig(const PowerTrace &trace, double eff, double cap_f, double vmin,
        double vmax, double v0)
        : cap(cap_f, vmin, vmax), harv(trace, eff, false)
    {
        cap.setVoltage(v0);
    }

    bool sameStateAs(const Rig &o) const
    {
        return cap.storedAj() == o.cap.storedAj() &&
               harv.nowCycles() == o.harv.nowCycles() &&
               harv.totalHarvestedAj() == o.harv.totalHarvestedAj();
    }
};

PowerTrace
randomTrace(Rng &rng)
{
    const double period = rng.nextDouble(5.0e-6, 60.0e-6);
    const std::size_t n = 1 + rng.nextBelow(6);
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
        // Include zero-power samples ~1/4 of the time.
        samples.push_back(rng.nextBelow(4) == 0
                              ? 0.0
                              : rng.nextDouble(1.0e-3, 40.0e-3));
    }
    return PowerTrace(period, samples);
}

} // namespace

// --- Partition invariance -------------------------------------------------

TEST(SolverProperty, AdvancePartitionInvariance)
{
    // advanceCycles(a + b) == advanceCycles(a); advanceCycles(b) for
    // arbitrary split points, including splits landing exactly on
    // sample edges and splits where the rail clamps mid-way.
    Rng rng(0xbeefu);
    for (unsigned iter = 0; iter < 200; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        const double cap_f = rng.nextDouble(0.3e-6, 3.0e-6);
        const double v0 = rng.nextDouble(0.0, 3.4);
        Rig one(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig two(trace, eff, cap_f, 2.8, 3.5, v0);

        const Cycle total = 1 + rng.nextBelow(400'000);
        Cycle split = rng.nextBelow(total + 1);
        if (rng.nextBelow(3) == 0) {
            // Land the split exactly on a sample edge.
            split = std::min<Cycle>(
                total, one.harv.periodCycles() *
                           (1 + rng.nextBelow(4)));
        }

        const Attojoules d1 =
            one.harv.advanceCycles(total, one.cap);
        const Attojoules d2a =
            two.harv.advanceCycles(split, two.cap);
        const Attojoules d2b =
            two.harv.advanceCycles(total - split, two.cap);
        EXPECT_EQ(d1, d2a + d2b) << "iter " << iter;
        EXPECT_TRUE(one.sameStateAs(two)) << "iter " << iter;
    }
}

TEST(SolverProperty, ClosedFormEqualsPerCycleScan)
{
    // The load-bearing lemma: one closed-form advance over n cycles
    // equals n single-cycle advances — through sample boundaries,
    // zero-power samples, and the Vmax rail. (Single-cycle advances
    // are exactly what percycle mode executes.)
    Rng rng(0xcafeu);
    for (unsigned iter = 0; iter < 40; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        // Small capacitor so the rail clamp actually engages.
        const double cap_f = rng.nextDouble(0.05e-6, 0.5e-6);
        const double v0 = rng.nextDouble(2.8, 3.5);
        Rig closed(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig scan(trace, eff, cap_f, 2.8, 3.5, v0);

        // Enough cycles to cross several sample edges.
        const Cycle n =
            closed.harv.periodCycles() * (2 + rng.nextBelow(3)) +
            rng.nextBelow(1000);
        const Attojoules dc = closed.harv.advanceCycles(n, closed.cap);
        Attojoules ds = 0;
        for (Cycle i = 0; i < n; ++i)
            ds += scan.harv.advanceCycles(1, scan.cap);
        EXPECT_EQ(dc, ds) << "iter " << iter;
        EXPECT_TRUE(closed.sameStateAs(scan)) << "iter " << iter;
    }
}

TEST(SolverProperty, ChunkedAdvanceEqualsSingleCycleSteps)
{
    // advanceCycles() takes an inline path for a span ending inside
    // the current sample and a walk for the rest. Any chunking of a
    // run must land where one-cycle steps do: capacitor level,
    // harvest total, and the clock, sample index and phase (compared
    // as the serialized HARV state). Spans include zero, ones ending
    // exactly on a sample edge, multi-sample ones, and ones taken
    // right after the harvester is reloaded from a snapshot.
    const auto state = [](const Harvester &h) {
        SnapshotWriter w;
        StateIo::save(h, w);
        return w.take();
    };
    Rng rng(0xf00du);
    for (unsigned iter = 0; iter < 60; ++iter) {
        SCOPED_TRACE(iter);
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        const bool infinite = iter % 6 == 5;
        // Small capacitor so the rail clamp engages.
        const double cap_f = rng.nextDouble(0.05e-6, 0.5e-6);
        const double v0 = rng.nextDouble(2.8, 3.5);
        Capacitor chunk_cap(cap_f, 2.8, 3.5);
        Capacitor step_cap(cap_f, 2.8, 3.5);
        chunk_cap.setVoltage(v0);
        step_cap.setVoltage(v0);
        std::optional<Harvester> chunk(std::in_place, trace, eff,
                                       infinite);
        Harvester step(trace, eff, infinite);

        const Cycle period = step.periodCycles();
        const Cycle total = period * (2 + rng.nextBelow(3)) +
                            rng.nextBelow(1000);
        Attojoules chunk_sum = 0;
        Attojoules step_sum = 0;
        for (Cycle done = 0; done < total;) {
            Cycle span = 0;
            switch (rng.nextBelow(5)) {
              case 0:  // zero-cycle span
                break;
              case 1:  // up to the next sample edge exactly
                span = period - done % period;
                break;
              case 2:  // across one or more sample edges
                span = period + rng.nextBelow(2 * period);
                break;
              default:  // inside the current sample, usually
                span = 1 + rng.nextBelow(period / 4);
                break;
            }
            span = std::min(span, total - done);
            chunk_sum += chunk->advanceCycles(span, chunk_cap);
            for (Cycle i = 0; i < span; ++i)
                step_sum += step.advanceCycles(1, step_cap);
            // The infinite supply tops up on every call, zero spans
            // included.
            if (span == 0 && infinite)
                step_sum += step.advanceCycles(0, step_cap);
            done += span;

            ASSERT_EQ(chunk_cap.storedAj(), step_cap.storedAj())
                << "at cycle " << done;
            ASSERT_EQ(chunk_sum, step_sum) << "at cycle " << done;
            ASSERT_EQ(chunk->totalHarvestedAj(), step.totalHarvestedAj());
            ASSERT_EQ(state(*chunk), state(step)) << "at cycle " << done;

            // Drain a little so later deposits are not all clamped.
            const Attojoules draw = rng.nextBelow(step_cap.storedAj() / 8 + 1);
            chunk_cap.drawAj(draw);
            step_cap.drawAj(draw);

            if (rng.nextBelow(6) == 0) {
                const std::vector<std::uint8_t> bytes = state(*chunk);
                chunk.emplace(trace, eff, infinite);
                SnapshotReader r(bytes);
                StateIo::load(*chunk, r);
                ASSERT_TRUE(r.atEnd());
            }
        }
    }
}

// --- Threshold crossing (chargeUntil) ------------------------------------

TEST(SolverProperty, ChargeUntilModesLandOnSameCycle)
{
    // The closed-form crossing solver must stop charging on EXACTLY
    // the cycle the per-cycle scan stops on — same elapsed cycles,
    // same stored energy, same harvest total — for randomized traces,
    // capacitances, start voltages, and targets (including targets at
    // the Vmax rail, where the clamp and the comparator interact).
    Rng rng(0xf007u);
    unsigned reached = 0;
    for (unsigned iter = 0; iter < 120; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        const double cap_f = rng.nextDouble(0.3e-6, 2.0e-6);
        const double v0 = rng.nextDouble(0.0, 3.2);
        const double target = rng.nextBelow(5) == 0
                                  ? 3.5  // exactly the rail
                                  : rng.nextDouble(2.9, 3.5);
        Rig skip(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig scan(trace, eff, cap_f, 2.8, 3.5, v0);

        const double ts = skip.harv.chargeUntil(
            skip.cap, target, 1.0, StepMode::SkipAhead);
        const double tp = scan.harv.chargeUntil(
            scan.cap, target, 1.0, StepMode::Percycle);
        EXPECT_EQ(ts, tp) << "iter " << iter;
        EXPECT_TRUE(skip.sameStateAs(scan)) << "iter " << iter;
        // Underpowered traces legitimately time out (still required
        // to agree, above). When the charge DID complete, both modes
        // reached the quantized target level.
        if (skip.cap.storedAj() >= skip.cap.energyAjForVoltage(target))
            ++reached;
    }
    // The sweep must actually exercise successful crossings, not just
    // time out everywhere.
    EXPECT_GE(reached, 60u);
}

TEST(SolverProperty, ChargeUntilOvershootBelowOneCycleDeposit)
{
    // The solver may not skip past the crossing: overshoot is bounded
    // by a single cycle's deposit at the crossing sample's rate.
    Rng rng(0x0dd5u);
    for (unsigned iter = 0; iter < 60; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double cap_f = rng.nextDouble(0.3e-6, 2.0e-6);
        const double target = rng.nextDouble(2.9, 3.45);
        Rig rig(trace, 0.7, cap_f, 2.8, 3.5, 0.0);
        rig.harv.chargeUntil(rig.cap, target, 1.0,
                             StepMode::SkipAhead);

        const Attojoules target_aj =
            rig.cap.energyAjForVoltage(target);
        if (rig.cap.storedAj() < target_aj)
            continue;  // dead/underpowered trace timed out: fine.
        const Attojoules over = rig.cap.storedAj() - target_aj;
        // Bound: one cycle at the trace's maximum possible rate
        // (40 mW cap in randomTrace, efficiency 0.7).
        const Attojoules bound =
            toAttojoules(40.0e-3 * 0.7 / kCoreFreqHz);
        EXPECT_LE(over, bound) << "iter " << iter;
    }
}

TEST(SolverProperty, ChargeUntilTimeoutIdenticalAcrossModes)
{
    // An unreachable target times out at the same cycle in both modes.
    const PowerTrace weak(20.0e-6, { 1.0e-6, 0.0 });
    Rig skip(weak, 0.7, 1.0e-6, 2.8, 3.5, 0.0);
    Rig scan(weak, 0.7, 1.0e-6, 2.8, 3.5, 0.0);
    const double ts =
        skip.harv.chargeUntil(skip.cap, 3.4, 1.0e-3,
                              StepMode::SkipAhead);
    const double tp =
        scan.harv.chargeUntil(scan.cap, 3.4, 1.0e-3,
                              StepMode::Percycle);
    EXPECT_EQ(ts, tp);
    EXPECT_TRUE(skip.sameStateAs(scan));
    EXPECT_LT(skip.cap.storedAj(), skip.cap.energyAjForVoltage(3.4));
}

TEST(SolverProperty, ChargeUntilExactCycleLandingNoOvershoot)
{
    // Engineer a target that is hit EXACTLY on a cycle boundary: rate
    // divides the needed energy. The solver must stop precisely there
    // (zero overshoot), not one cycle later.
    const PowerTrace trace(1.0e-3, { 10.0e-3 });  // long sample
    Rig rig(trace, 1.0, 1.0e-6, 0.0, 100.0, 0.0);
    const Attojoules rate = rig.harv.currentRateAj();
    ASSERT_GT(rate, 0u);

    // Pick a voltage whose quantized level is a multiple of the rate.
    const Attojoules want_cycles = 12'345;
    const Attojoules target_aj = rate * want_cycles;
    const double v_target =
        std::sqrt(2.0 * toJoules(target_aj) / 1.0e-6);
    // Only assert when quantization round-trips exactly (it does for
    // these numbers; guard keeps the test honest about its premise).
    ASSERT_EQ(rig.cap.energyAjForVoltage(v_target), target_aj);

    rig.harv.chargeUntil(rig.cap, v_target, 1.0,
                         StepMode::SkipAhead);
    EXPECT_EQ(rig.cap.storedAj(), target_aj);
    EXPECT_EQ(rig.harv.nowCycles(), want_cycles);
}

// --- Rail / clamp arithmetic ----------------------------------------------

TEST(SolverProperty, WaterFillingLemmaAtTheRail)
{
    // Clamped absorption is associative: depositing n*rate in one add
    // equals n clamped per-cycle adds, even when the rail cuts the
    // deposit short. This is what lets skip_ahead batch whole samples.
    Rng rng(0x4a11u);
    for (unsigned iter = 0; iter < 100; ++iter) {
        const double cap_f = rng.nextDouble(0.01e-6, 0.2e-6);
        Capacitor one(cap_f, 2.8, 3.5);
        Capacitor many(cap_f, 2.8, 3.5);
        const double v0 = rng.nextDouble(3.3, 3.5);
        one.setVoltage(v0);
        many.setVoltage(v0);

        const Attojoules rate = 1 + rng.nextBelow(50'000);
        const std::uint64_t n = 1 + rng.nextBelow(100'000);
        const Attojoules d1 = one.addAj(scaleAttojoules(rate, n));
        Attojoules dn = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            dn += many.addAj(rate);
        EXPECT_EQ(d1, dn) << "iter " << iter;
        EXPECT_EQ(one.storedAj(), many.storedAj()) << "iter " << iter;
    }
}

TEST(SolverProperty, ScaleAttojoulesSaturates)
{
    EXPECT_EQ(scaleAttojoules(0, 1u << 30), 0u);
    EXPECT_EQ(scaleAttojoules(3, 5), 15u);
    // Saturation instead of wraparound.
    EXPECT_EQ(scaleAttojoules(kMaxAttojoules, 2), kMaxAttojoules);
    EXPECT_EQ(scaleAttojoules(1'000'000'000'000ull,
                              100'000'000'000ull),
              kMaxAttojoules);
    // The ceiling itself is reachable; one rate step past it, or a
    // product past 2^64, saturates.
    for (const Attojoules rate : { 1ull, 7ull, 1'000'003ull }) {
        const std::uint64_t top = kMaxAttojoules / rate;
        EXPECT_EQ(scaleAttojoules(rate, top), rate * top) << rate;
        EXPECT_EQ(scaleAttojoules(rate, top + 1), kMaxAttojoules) << rate;
    }
    EXPECT_EQ(scaleAttojoules(kMaxAttojoules, 1), kMaxAttojoules);
    EXPECT_EQ(scaleAttojoules(~0ull, ~0ull), kMaxAttojoules);
}

TEST(SolverProperty, QuantizerEdges)
{
    EXPECT_EQ(toAttojoules(0.0), 0u);
    EXPECT_EQ(toAttojoules(-1.0), 0u);
    EXPECT_EQ(toAttojoules(1.0e-18), 1u);
    // Round-to-nearest at the attojoule grid.
    EXPECT_EQ(toAttojoules(1.49e-18), 1u);
    EXPECT_EQ(toAttojoules(1.51e-18), 2u);
    // Saturation above the representable range.
    EXPECT_EQ(toAttojoules(100.0), kMaxAttojoules);
    // toJoules is exact for the grid (1e18 is a power-of-two-scaled
    // exactly-representable double).
    EXPECT_EQ(toJoules(0), 0.0);
    EXPECT_DOUBLE_EQ(toJoules(kMaxAttojoules), 9.0);
}

TEST(SolverProperty, QuantizerMatchesLlround)
{
    // toAttojoules() rounds without libm; it must agree with
    // std::llround(x * 1e18) on every input llround is defined for.
    unsigned checked = 0;
    unsigned exact_halves = 0;
    const auto check = [&](double joules) {
        const double aj = joules * kAttojoulesPerJoule;
        if (!(aj > 0.0) || aj >= static_cast<double>(kMaxAttojoules))
            return;
        ++checked;
        if (aj - std::trunc(aj) == 0.5)
            ++exact_halves;
        ASSERT_EQ(toAttojoules(joules),
                  static_cast<Attojoules>(std::llround(aj)))
            << std::hexfloat << "joules " << joules << " aj " << aj;
    };
    // The joule doubles nearest to an attojoule value, so the
    // product lands on it (or on a neighbour) exactly.
    const auto checkAj = [&](double aj) {
        double x = aj / kAttojoulesPerJoule;
        for (int i = 0; i < 3; ++i)
            x = std::nextafter(x, 0.0);
        for (int i = 0; i < 7; ++i) {
            check(x);
            x = std::nextafter(x, HUGE_VAL);
        }
    };
    // Every k + 0.5 aJ and its two neighbours, small k.
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const double half = static_cast<double>(k) + 0.5;
        checkAj(std::nextafter(half, 0.0));
        checkAj(half);
        checkAj(std::nextafter(half, HUGE_VAL));
    }
    // Near 2^52 (the last binade with a .5), 2^53 (the first with
    // none) and the saturation ceiling: walk every double nearby.
    for (const double edge : { 0x1p52, 0x1p53,
                               static_cast<double>(kMaxAttojoules) }) {
        double lo = edge;
        double hi = edge;
        for (int i = 0; i < 256; ++i) {
            lo = std::nextafter(lo, 0.0);
            hi = std::nextafter(hi, HUGE_VAL);
            checkAj(lo);
            checkAj(hi);
        }
        checkAj(edge);
    }
    EXPECT_GT(exact_halves, 1000u);

    // Seeded doubles spanning 1e-20 .. 9 J, log-uniform.
    Rng rng(0x5eedu);
    for (unsigned i = 0; i < 1'000'000; ++i)
        check(1.0e-20 * std::pow(9.0e20, rng.nextDouble()));
    EXPECT_GT(checked, 1'000'000u);

    // Outside llround's use: zero, negatives, NaN and saturation.
    EXPECT_EQ(toAttojoules(0.0), 0u);
    EXPECT_EQ(toAttojoules(-0.0), 0u);
    EXPECT_EQ(toAttojoules(-0.5e-18), 0u);
    EXPECT_EQ(toAttojoules(-HUGE_VAL), 0u);
    EXPECT_EQ(toAttojoules(std::nan("")), 0u);
    EXPECT_EQ(toAttojoules(static_cast<double>(kMaxAttojoules) /
                           kAttojoulesPerJoule),
              kMaxAttojoules);
    EXPECT_EQ(toAttojoules(9.5), kMaxAttojoules);
    EXPECT_EQ(toAttojoules(HUGE_VAL), kMaxAttojoules);
    // Just below the ceiling the quantizer still rounds.
    const double below = std::nextafter(
        static_cast<double>(kMaxAttojoules), 0.0);
    EXPECT_EQ(toAttojoules(below / kAttojoulesPerJoule),
              static_cast<Attojoules>(std::llround(
                  below / kAttojoulesPerJoule * kAttojoulesPerJoule)));
}
