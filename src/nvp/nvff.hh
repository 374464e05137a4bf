/**
 * @file
 * Non-volatile flip-flop (NVFF) backup storage. NVP-class systems
 * pair every architectural register with a neighbouring NVFF so a
 * JIT checkpoint can capture the core state in-place (paper §2.1);
 * WL-Cache adds a few more NVFF bytes for the maxline/waterline
 * thresholds and the two watchdog power-on times (§5.5). This class
 * models that storage: contents survive power loss, and every
 * checkpoint/restore charges the energy meter.
 */

#ifndef WLCACHE_NVP_NVFF_HH
#define WLCACHE_NVP_NVFF_HH

#include <cstdint>
#include <vector>

#include "energy/energy_meter.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace nvp {

/** A small bank of non-volatile flip-flops. */
class NvffStore
{
  public:
    /**
     * @param capacity_bytes Size of the bank.
     * @param write_energy_per_byte JIT-checkpoint cost.
     * @param read_energy_per_byte Boot-restore cost.
     * @param meter Energy meter (may be null).
     * @param write_latency_per_byte Cycles per checkpointed byte.
     */
    NvffStore(unsigned capacity_bytes, double write_energy_per_byte,
              double read_energy_per_byte,
              energy::EnergyMeter *meter = nullptr,
              double write_latency_per_byte = 0.125);

    unsigned capacity() const
    {
        return static_cast<unsigned>(data_.size());
    }

    /**
     * Checkpoint @p bytes of @p data into the bank at @p offset.
     * @return cycles the (parallel flash-style) capture takes.
     */
    Cycle checkpoint(const void *data, unsigned bytes,
                     unsigned offset = 0);

    /** Restore @p bytes from the bank into @p data. */
    Cycle restore(void *data, unsigned bytes, unsigned offset = 0) const;

    /** Whether a checkpoint has ever been captured. */
    bool hasImage() const { return has_image_; }

    /** Total checkpoints performed (statistics). */
    std::uint64_t checkpointCount() const { return checkpoints_; }

    /** Serialize the bank contents and checkpoint bookkeeping. */
    void ioState(StateIo &io);

  private:
    std::vector<std::uint8_t> data_;
    double write_energy_per_byte_;
    double read_energy_per_byte_;
    energy::EnergyMeter *meter_;
    double write_latency_per_byte_;
    bool has_image_ = false;
    std::uint64_t checkpoints_ = 0;
};

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_NVFF_HH
