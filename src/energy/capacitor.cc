#include "energy/capacitor.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace energy {

Capacitor::Capacitor(double capacitance_f, double vmin_v, double vmax_v)
    : capacitance_f_(capacitance_f), vmin_v_(vmin_v), vmax_v_(vmax_v)
{
    wlc_assert(capacitance_f_ > 0.0);
    wlc_assert(vmin_v_ >= 0.0 && vmax_v_ > vmin_v_);
    rail_aj_ = toAttojoules(energyForVoltage(vmax_v_));
    energy_aj_ = toAttojoules(energyForVoltage(vmin_v_));
}

double
Capacitor::energyForVoltage(double v) const
{
    return 0.5 * capacitance_f_ * v * v;
}

Attojoules
Capacitor::energyAjForVoltage(double v) const
{
    v = std::clamp(v, 0.0, vmax_v_);
    // Quantizing Vmax here and in the constructor goes through the
    // same expression, so a target of "the rail" compares equal to
    // the add-side clamp — no one-ulp misses at the top.
    return std::min(rail_aj_, toAttojoules(energyForVoltage(v)));
}

double
Capacitor::voltage() const
{
    return std::sqrt(2.0 * storedEnergy() / capacitance_f_);
}

void
Capacitor::setVoltage(double v)
{
    energy_aj_ = energyAjForVoltage(v);
}

double
Capacitor::energyAboveVmin() const
{
    return std::max(0.0, storedEnergy() - energyForVoltage(vmin_v_));
}

double
Capacitor::addEnergy(double joules)
{
    wlc_assert(joules >= 0.0);
    // The returned deposit must equal the actual change in
    // storedEnergy(): render before and after through the same
    // toJoules() and difference the doubles, so callers integrating
    // the return value track the buffer level exactly.
    const double before = storedEnergy();
    addAj(toAttojoules(joules));
    return storedEnergy() - before;
}

double
Capacitor::drawEnergy(double joules)
{
    wlc_assert(joules >= 0.0);
    const double before = storedEnergy();
    drawAj(toAttojoules(joules));
    return before - storedEnergy();
}

bool
Capacitor::brownedOut() const
{
    return voltage() < vmin_v_;
}

double
Capacitor::energyBetween(double v_lo, double v_hi) const
{
    wlc_assert(v_hi >= v_lo);
    return energyForVoltage(v_hi) - energyForVoltage(v_lo);
}

double
Capacitor::voltageForEnergyAbove(double v_floor, double joules) const
{
    wlc_assert(joules >= 0.0);
    const double e = energyForVoltage(v_floor) + joules;
    const double v = std::sqrt(2.0 * e / capacitance_f_);
    return std::min(v, vmax_v_);
}

void
Capacitor::ioState(StateIo &io)
{
    io.section("CAP ");
    io.u64(energy_aj_);
}

} // namespace energy
} // namespace wlcache
