/**
 * @file
 * Energy-buffer capacitor model. Stored energy follows E = C*V^2/2;
 * the system operates between Vmin (brown-out) and Vmax (fully
 * charged). All conversions between voltage and energy live here so
 * the JIT-checkpointing threshold math (Vbackup) is in one place.
 *
 * The stored level is an integer attojoule count (see attojoule.hh):
 * deposits and draws are exact integer adds, so batching a span of
 * cycles into one operation reaches the same level as applying it
 * cycle-by-cycle — the invariant the skip-ahead loop depends on. The
 * joule-typed API is a thin wrapper that quantizes on the way in and
 * renders on the way out.
 */

#ifndef WLCACHE_ENERGY_CAPACITOR_HH
#define WLCACHE_ENERGY_CAPACITOR_HH

#include <algorithm>

#include "energy/attojoule.hh"

namespace wlcache {

class StateIo;

namespace energy {

/**
 * Ideal capacitor with clamped voltage range [0, Vmax]. The paper's
 * default is 1 uF with Vmin 2.8 V and Vmax 3.5 V (Table 2).
 */
class Capacitor
{
  public:
    /**
     * @param capacitance_f Capacitance in farads.
     * @param vmin_v Minimum operating voltage (brown-out level).
     * @param vmax_v Fully-charged voltage.
     */
    Capacitor(double capacitance_f, double vmin_v, double vmax_v);

    double capacitance() const { return capacitance_f_; }
    double vmin() const { return vmin_v_; }
    double vmax() const { return vmax_v_; }

    /** Current terminal voltage, volts. */
    double voltage() const;

    /** Set the terminal voltage directly (clamped to [0, Vmax]). */
    void setVoltage(double v);

    /** Total stored energy, joules (relative to 0 V). */
    double storedEnergy() const { return toJoules(energy_aj_); }

    /** Total stored energy, attojoules (exact). */
    Attojoules storedAj() const { return energy_aj_; }

    /** Quantized stored energy for voltage @p v (clamped to range). */
    Attojoules energyAjForVoltage(double v) const;

    /** Energy available above the brown-out level, joules. */
    double energyAboveVmin() const;

    /**
     * Add harvested energy; the level clamps at Vmax (excess ambient
     * energy is discarded, as in a real regulator).
     * @return attojoules actually absorbed — exactly the change in
     * storedAj().
     */
    Attojoules addAj(Attojoules aj)
    {
        const Attojoules room = rail_aj_ - std::min(rail_aj_, energy_aj_);
        if (aj >= room) {
            energy_aj_ = rail_aj_;  // Snap exactly to the rail.
            return room;
        }
        energy_aj_ += aj;
        return aj;
    }

    /**
     * Draw energy; the level clamps at 0 when the demand exceeds the
     * store.
     * @return attojoules actually drawn — exactly the change in
     * storedAj().
     */
    Attojoules drawAj(Attojoules aj)
    {
        if (aj >= energy_aj_) {
            const Attojoules drawn = energy_aj_;
            energy_aj_ = 0;  // Bottomed out at the 0 V rail.
            return drawn;
        }
        energy_aj_ -= aj;
        return aj;
    }

    /**
     * Joule-typed addAj(): the deposit is quantized to whole aJ.
     * @return energy actually absorbed — always exactly the change in
     * storedEnergy(), so integrating the return value cannot drift
     * from the buffer level even when the deposit saturates at the
     * rail (the level snaps to the Vmax energy rather than
     * accumulating one rounded add per step).
     */
    double addEnergy(double joules);

    /**
     * Joule-typed drawAj() (possibly dipping below Vmin — the caller
     * decides what a brown-out means).
     * @return energy actually drawn — exactly the change in
     * storedEnergy(), which is less than @p joules when the draw
     * bottoms out at the 0 V rail.
     */
    double drawEnergy(double joules);

    /** True when voltage() < vmin(). */
    bool brownedOut() const;

    /** Energy between two voltage levels for this capacitance. */
    double energyBetween(double v_lo, double v_hi) const;

    /**
     * Voltage the capacitor must hold so that @p joules of energy is
     * available before falling to @p v_floor. Clamped to Vmax.
     */
    double voltageForEnergyAbove(double v_floor, double joules) const;

    /** Serialize the stored-energy level. */
    void ioState(StateIo &io);

  private:
    double energyForVoltage(double v) const;

    double capacitance_f_;
    double vmin_v_;
    double vmax_v_;
    Attojoules rail_aj_;   //!< Stored energy at Vmax, the add clamp.
    Attojoules energy_aj_;
};

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_CAPACITOR_HH
