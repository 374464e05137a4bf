/**
 * @file
 * Couples a PowerTrace to a Capacitor: integrates ambient power over
 * simulated time (on and off periods alike) and deposits the
 * harvested energy into the buffer.
 *
 * The harvester clock runs on the core cycle grid (1 cycle = 1 ns):
 * each trace sample is a whole number of cycles wide and deposits a
 * fixed integer attojoule rate per cycle. Integrating N cycles is
 * then exact integer math — `min(N * rate, room)` per sample segment
 * — so the closed-form skip-ahead path and the cycle-by-cycle
 * reference path produce bit-identical capacitor levels, crossing
 * cycles, and harvest totals (DESIGN.md §15).
 */

#ifndef WLCACHE_ENERGY_HARVESTER_HH
#define WLCACHE_ENERGY_HARVESTER_HH

#include "energy/capacitor.hh"
#include "energy/power_trace.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace energy {

/**
 * Stateful harvester: tracks absolute simulated time in cycles and
 * walks the power trace incrementally so per-event harvesting is O(1)
 * amortized.
 */
class Harvester
{
  public:
    /**
     * @param trace Ambient power waveform, read in place: it must
     *        outlive the harvester.
     * @param efficiency Conversion efficiency in (0, 1].
     * @param infinite When true, models a bench-supply: advance() tops
     *        the capacitor up to Vmax every call (no-failure runs).
     */
    Harvester(const PowerTrace &trace, double efficiency = 0.7,
              bool infinite = false);

    /** A temporary trace would dangle. */
    Harvester(PowerTrace &&, double = 0.7, bool = false) = delete;

    /**
     * Advance simulated time by @p cycles, harvesting into @p cap.
     * Walks whole sample segments closed-form; `advanceCycles(1)`
     * called N times reaches exactly the same state (integer adds).
     * @return attojoules deposited.
     */
    Attojoules advanceCycles(Cycle cycles, Capacitor &cap)
    {
        // Fast path for the run loop's common span: non-empty and
        // ending strictly inside the current sample, so the cursor
        // does not step. The walk never hands a zero span to the
        // capacitor, and a span ending on the sample edge steps the
        // sample: those, and the infinite supply, take the walk.
        if (!infinite_ && cycles != 0 &&
            cycles < period_cycles_ - pos_in_sample_cycles_)
            return advanceWithinSample(cycles, cap);
        return walkCycles(cycles, cap);
    }

    /**
     * Seconds-typed advanceCycles() (rounds @p dt_s to whole cycles).
     * @return energy deposited, joules.
     */
    double advance(double dt_s, Capacitor &cap);

    /**
     * Advance time until @p cap reaches @p v_target or @p max_wait_s
     * elapses. Used for the power-off recharge phase. Both step modes
     * walk whole sample segments (a multi-second recharge must not
     * cost a billion iterations); inside the sample where the target
     * is crossed, SkipAhead solves the crossing cycle by division
     * while Percycle scans cycle-by-cycle. The two land on the same
     * cycle — the property tests in tests/energy_solver_test.cc pin
     * that down.
     * @return seconds spent charging.
     */
    double chargeUntil(Capacitor &cap, double v_target,
                       double max_wait_s = 1.0e4,
                       StepMode mode = StepMode::SkipAhead);

    /** Absolute simulated time, cycles. */
    Cycle nowCycles() const { return now_cycles_; }

    /** Absolute simulated wall-clock time, seconds. */
    double now() const { return cyclesToSeconds(now_cycles_); }

    /** Energy deposited into the capacitor since reset(), joules. */
    double totalHarvested() const
    {
        return toJoules(total_harvested_aj_);
    }

    /** Energy deposited since reset(), attojoules (exact). */
    Attojoules totalHarvestedAj() const { return total_harvested_aj_; }

    /** Reset the clock and trace position (new experiment). */
    void reset();

    bool infinite() const { return infinite_; }
    const PowerTrace &trace() const { return trace_; }

    /** Ambient power of the sample the cursor is in, watts. */
    double currentPower() const { return power_w_; }

    /** Per-cycle deposit rate of the current sample, attojoules. */
    Attojoules currentRateAj() const { return rate_aj_; }

    /** Cycles covered by one trace sample. */
    Cycle periodCycles() const { return period_cycles_; }

    /** Serialize clock, trace cursor, and harvest accumulator. */
    void ioState(StateIo &io);

  private:
    /** advanceCycles() for any span: walks sample by sample. */
    Attojoules walkCycles(Cycle cycles, Capacitor &cap);

    /** Move the cursor to the start of the next trace sample. */
    void stepSample();

    /** Regenerate the trace from sample 0 up to sample_idx_. */
    void seekSample();

    /** Recompute rate_aj_ for the sample the cursor is in. */
    void refreshRate();

    /**
     * Advance @p cycles (all within the current sample) in one step.
     * @return attojoules deposited.
     */
    Attojoules advanceWithinSample(Cycle cycles, Capacitor &cap)
    {
        wlc_assert(cycles <= period_cycles_ - pos_in_sample_cycles_);
        const Attojoules deposited =
            cap.addAj(scaleAttojoules(rate_aj_, cycles));
        total_harvested_aj_ += deposited;
        now_cycles_ += cycles;
        pos_in_sample_cycles_ += cycles;
        // The cursor steps *when* the boundary is reached (rebasing
        // the phase to exactly 0), so a call that ends on a boundary
        // leaves currentPower() reading the next sample rather than
        // the stale one until the next advance.
        if (pos_in_sample_cycles_ == period_cycles_)
            stepSample();
        return deposited;
    }

    /** Top @p cap to Vmax (infinite-supply mode). */
    Attojoules topUp(Capacitor &cap);

    const PowerTrace &trace_;
    /** Reads the sample after sample_idx_; restarts on a wrap. */
    PowerTrace::Cursor cursor_;
    double efficiency_;
    bool infinite_;
    Cycle period_cycles_ = 1;
    double power_w_ = 0.0;    //!< Ambient power, current sample.
    Attojoules rate_aj_ = 0;  //!< Per-cycle deposit, current sample.
    Cycle now_cycles_ = 0;
    Attojoules total_harvested_aj_ = 0;
    std::size_t sample_idx_ = 0;
    Cycle pos_in_sample_cycles_ = 0;   //!< Invariant: < period_cycles_.
};

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_HARVESTER_HH
