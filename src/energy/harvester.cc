#include "energy/harvester.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace energy {

namespace {

/** Ceiling division for the crossing-cycle solver. */
inline std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return a / b + (a % b != 0 ? 1 : 0);
}

} // namespace

Harvester::Harvester(const PowerTrace &trace, double efficiency,
                     bool infinite)
    : trace_(trace), cursor_(trace.cursor()), efficiency_(efficiency),
      infinite_(infinite)
{
    wlc_assert(efficiency_ > 0.0 && efficiency_ <= 1.0);
    // Snap the sample period to the cycle grid once; every later
    // boundary is then an exact integer, so the skip-ahead and
    // per-cycle walks see identical sample edges.
    period_cycles_ = static_cast<Cycle>(
        std::llround(trace_.samplePeriod() * kCoreFreqHz));
    wlc_assert(period_cycles_ >= 1);
    seekSample();
}

void
Harvester::refreshRate()
{
    rate_aj_ = toAttojoules(currentPower() * efficiency_ *
                            kSecondsPerCycle);
}

void
Harvester::stepSample()
{
    pos_in_sample_cycles_ = 0;
    if (trace_.numSamples() == 0)
        return;
    if (++sample_idx_ == trace_.numSamples()) {
        sample_idx_ = 0;
        cursor_ = trace_.cursor();
    }
    power_w_ = cursor_.next();
    refreshRate();
}

void
Harvester::seekSample()
{
    cursor_ = trace_.cursor();
    power_w_ = 0.0;
    if (trace_.numSamples() != 0) {
        wlc_assert(sample_idx_ < trace_.numSamples(),
                   "trace sample %zu of %zu", sample_idx_,
                   trace_.numSamples());
        for (std::size_t i = 0; i < sample_idx_; ++i)
            cursor_.next();
        power_w_ = cursor_.next();
    }
    refreshRate();
}

Attojoules
Harvester::topUp(Capacitor &cap)
{
    const Attojoules before = cap.storedAj();
    cap.setVoltage(cap.vmax());
    const Attojoules deposited = cap.storedAj() - before;
    total_harvested_aj_ += deposited;
    return deposited;
}

Attojoules
Harvester::walkCycles(Cycle cycles, Capacitor &cap)
{
    if (infinite_) {
        now_cycles_ += cycles;
        return topUp(cap);
    }
    // Per sample segment the deposit is min(n * rate, room), which
    // equals n clamped single-cycle adds (integer water-filling), so
    // this closed form is exactly the per-cycle reference.
    Attojoules deposited = 0;
    while (cycles > 0) {
        const Cycle left = period_cycles_ - pos_in_sample_cycles_;
        const Cycle take = std::min(cycles, left);
        deposited += advanceWithinSample(take, cap);
        cycles -= take;
    }
    return deposited;
}

double
Harvester::advance(double dt_s, Capacitor &cap)
{
    wlc_assert(dt_s >= 0.0);
    const Cycle cycles =
        static_cast<Cycle>(std::llround(dt_s * kCoreFreqHz));
    return toJoules(advanceCycles(cycles, cap));
}

double
Harvester::chargeUntil(Capacitor &cap, double v_target,
                       double max_wait_s, StepMode mode)
{
    wlc_assert(v_target <= cap.vmax() + 1e-12);
    if (infinite_) {
        topUp(cap);
        return 0.0;
    }

    // Work in quantized energy: the target goes through the same
    // quantizer as the add-side rail clamp, so "charge to Vmax" is an
    // exact integer compare rather than a voltage round-trip that can
    // miss by one ulp forever.
    const Attojoules target_aj = cap.energyAjForVoltage(v_target);
    const Cycle start = now_cycles_;
    const Cycle max_wait_cycles = static_cast<Cycle>(
        std::llround(max_wait_s * kCoreFreqHz));
    // A full trace pass that deposits nothing can never reach the
    // target: give up immediately instead of stepping zero-power
    // samples until max_wait_s (an all-outage trace would otherwise
    // take ~5e8 iterations to "time out").
    const Cycle pass_len_cycles =
        period_cycles_ *
        static_cast<Cycle>(
            std::max<std::size_t>(1, trace_.numSamples()));
    Cycle pass_start = now_cycles_;
    Attojoules pass_start_aj = cap.storedAj();

    while (cap.storedAj() < target_aj) {
        if (now_cycles_ - start > max_wait_cycles)
            break;  // dead environment
        if (now_cycles_ - pass_start >= pass_len_cycles) {
            if (cap.storedAj() <= pass_start_aj)
                break;  // zero-gain pass: dead
            pass_start = now_cycles_;
            pass_start_aj = cap.storedAj();
        }
        const Cycle left = period_cycles_ - pos_in_sample_cycles_;
        const Attojoules rate = currentRateAj();
        if (rate == 0) {
            now_cycles_ += left;
            stepSample();
            continue;
        }
        const Attojoules needed = target_aj - cap.storedAj();
        const Cycle want = ceilDiv(needed, rate);
        if (want >= left) {
            // The target is not crossed inside this sample: both
            // modes batch the whole segment (exact by the
            // water-filling argument — a recharge spanning seconds
            // must not cost a billion iterations even in Percycle).
            advanceWithinSample(left, cap);
            continue;
        }
        if (mode == StepMode::SkipAhead) {
            // Closed-form crossing: ceil(needed / rate) cycles.
            advanceWithinSample(want, cap);
        } else {
            // Reference: scan the crossing sample cycle-by-cycle.
            // tests/energy_solver_test.cc asserts this lands on the
            // same cycle as the solver above.
            while (cap.storedAj() < target_aj)
                advanceWithinSample(1, cap);
        }
    }
    return cyclesToSeconds(now_cycles_ - start);
}

void
Harvester::reset()
{
    now_cycles_ = 0;
    total_harvested_aj_ = 0;
    sample_idx_ = 0;
    pos_in_sample_cycles_ = 0;
    seekSample();
}

void
Harvester::ioState(StateIo &io)
{
    io.section("HARV");
    io.u64(now_cycles_);
    io.u64(total_harvested_aj_);
    io.u64(sample_idx_);
    io.u64(pos_in_sample_cycles_);
    if (io.loading())
        seekSample();
}

} // namespace energy
} // namespace wlcache
