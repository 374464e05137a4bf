#include "energy/energy_meter.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace energy {

const char *
energyCategoryName(EnergyCategory cat)
{
    switch (cat) {
      case EnergyCategory::Compute:    return "compute";
      case EnergyCategory::CacheRead:  return "cache_read";
      case EnergyCategory::CacheWrite: return "cache_write";
      case EnergyCategory::MemRead:    return "mem_read";
      case EnergyCategory::MemWrite:   return "mem_write";
      case EnergyCategory::Checkpoint: return "checkpoint";
      case EnergyCategory::Restore:    return "restore";
      case EnergyCategory::Leakage:    return "leakage";
      case EnergyCategory::NumCategories: break;
    }
    panic("unknown EnergyCategory %d", static_cast<int>(cat));
}

double
EnergyMeter::get(EnergyCategory cat) const
{
    return toJoules(getAj(cat));
}

Attojoules
EnergyMeter::getAj(EnergyCategory cat) const
{
    wlc_assert(cat != EnergyCategory::NumCategories);
    return aj_[static_cast<std::size_t>(cat)];
}

double
EnergyMeter::total() const
{
    return toJoules(totalAj());
}

void
EnergyMeter::reset()
{
    aj_.fill(0);
    total_ = 0;
}

void
EnergyMeter::ioState(StateIo &io)
{
    io.section("METR");
    for (Attojoules &a : aj_)
        io.u64(a);
    if (io.loading()) {
        total_ = 0;
        for (const Attojoules a : aj_)
            total_ += a;
    }
}

} // namespace energy
} // namespace wlcache
