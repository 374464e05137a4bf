/**
 * @file
 * Single-issue in-order core model (paper Table 2: 1 GHz, 1 core).
 * Executes recorded workload events: each event carries a compute gap
 * (non-memory instructions) followed by one data reference. Fetches
 * flow through the L1 I-cache; data references through the configured
 * data-cache design. Compute instructions retire one per cycle once
 * fetched; loads are blocking (in-order, no speculation), so the data
 * access latency is fully exposed — except where a design (WL-Cache,
 * ReplayCache) explicitly overlaps asynchronous persists with
 * subsequent instructions.
 */

#ifndef WLCACHE_CPU_INORDER_CORE_HH
#define WLCACHE_CPU_INORDER_CORE_HH

#include <array>
#include <cstdint>

#include "cache/cache_iface.hh"
#include "cache/icache.hh"
#include "cpu/icache_stream.hh"
#include "cpu/register_file.hh"
#include "energy/energy_meter.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace telemetry { class TimelineBuffer; }

namespace cpu {

/** Core timing/energy parameters. */
struct CoreParams
{
    /** Dynamic energy per retired instruction (decode+ALU+regfile). */
    double compute_energy_per_insn = 18.0e-12;
    /** Core logic leakage while powered, watts. */
    double leakage_watts = 0.2e-3;
};

/** The in-order core. */
class InOrderCore
{
  public:
    InOrderCore(const CoreParams &params, cache::InstrCache &icache,
                cache::DataCache &dcache, const ICacheStream &stream,
                energy::EnergyMeter *meter);

    /**
     * Execute one trace event at cycle @p now: fetch and retire the
     * compute gap plus the memory instruction, then perform the data
     * access.
     * @param load_out Receives load data when non-null.
     * @return cycle when the event has fully retired.
     */
    Cycle executeEvent(const MemAccess &ev, Cycle now,
                       std::uint64_t *load_out = nullptr);

    /** Instructions retired so far. */
    std::uint64_t instructionsRetired() const { return instret_; }

    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }
    const CoreParams &params() const { return params_; }

    /** Snapshot the fetch stream (ReplayCache region rollback). */
    ICacheStream streamSnapshot() const { return stream_; }

    /** Rewind the fetch stream to a snapshot. */
    void restoreStream(const ICacheStream &s) { stream_ = s; }

    stats::StatGroup &statGroup() { return stat_group_; }

    /** Attach a telemetry timeline (null detaches); observational. */
    void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }

    /**
     * Events of fewer instructions than this take their compute
     * charge from a table quantized at construction.
     */
    static constexpr unsigned kComputeTableSize = 256;

    /** Instructions between CoreProgress timeline markers. */
    static constexpr std::uint64_t kProgressStride = 1u << 16;

    /** Serialize stream, registers, retire count, and statistics. */
    void ioState(StateIo &io);

  private:
    CoreParams params_;
    cache::InstrCache &icache_;
    cache::DataCache &dcache_;
    ICacheStream stream_;
    energy::EnergyMeter *meter_;
    /**
     * compute_aj_[n] = toAttojoules(compute_energy_per_insn * n), the
     * value the single quantizer gives, so an event's charge from the
     * table is bit-identical to quantizing it per event.
     */
    std::array<energy::Attojoules, kComputeTableSize> compute_aj_;
    telemetry::TimelineBuffer *tl_ = nullptr;
    std::uint64_t next_progress_ = kProgressStride;
    RegisterFile regs_;
    std::uint64_t instret_ = 0;

    stats::StatGroup stat_group_;
    stats::Scalar &stat_insns_;
    stats::Scalar &stat_mem_insns_;
    stats::Scalar &stat_cycles_;
};

} // namespace cpu
} // namespace wlcache

#endif // WLCACHE_CPU_INORDER_CORE_HH
