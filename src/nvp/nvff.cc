#include "nvp/nvff.hh"

#include <cmath>
#include <cstring>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace nvp {

NvffStore::NvffStore(unsigned capacity_bytes,
                     double write_energy_per_byte,
                     double read_energy_per_byte,
                     energy::EnergyMeter *meter,
                     double write_latency_per_byte)
    : data_(capacity_bytes, 0),
      write_energy_per_byte_(write_energy_per_byte),
      read_energy_per_byte_(read_energy_per_byte), meter_(meter),
      write_latency_per_byte_(write_latency_per_byte)
{
    wlc_assert(capacity_bytes > 0);
}

Cycle
NvffStore::checkpoint(const void *data, unsigned bytes, unsigned offset)
{
    wlc_assert(data != nullptr);
    wlc_assert(offset + bytes <= data_.size(),
               "NVFF checkpoint overflows the bank");
    std::memcpy(data_.data() + offset, data, bytes);
    if (meter_)
        meter_->add(energy::EnergyCategory::Checkpoint,
                    write_energy_per_byte_ * bytes);
    has_image_ = true;
    ++checkpoints_;
    return static_cast<Cycle>(
        std::ceil(write_latency_per_byte_ * bytes));
}

Cycle
NvffStore::restore(void *data, unsigned bytes, unsigned offset) const
{
    wlc_assert(data != nullptr);
    wlc_assert(offset + bytes <= data_.size(),
               "NVFF restore overflows the bank");
    std::memcpy(data, data_.data() + offset, bytes);
    if (meter_)
        meter_->add(energy::EnergyCategory::Restore,
                    read_energy_per_byte_ * bytes);
    return static_cast<Cycle>(
        std::ceil(write_latency_per_byte_ * bytes * 0.5));
}

void
NvffStore::ioState(StateIo &io)
{
    io.section("NVFF");
    // The layout of vecU8(data_), with the capacity checked on load.
    io.check(data_.size(), "NVFF snapshot capacity");
    io.bytes(data_.data(), data_.size());
    io.b(has_image_);
    io.u64(checkpoints_);
}

} // namespace nvp
} // namespace wlcache
