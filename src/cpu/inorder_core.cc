#include "cpu/inorder_core.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cpu {

InOrderCore::InOrderCore(const CoreParams &params,
                         cache::InstrCache &icache,
                         cache::DataCache &dcache,
                         const ICacheStream &stream,
                         energy::EnergyMeter *meter)
    : params_(params), icache_(icache), dcache_(dcache), stream_(stream),
      meter_(meter), stat_group_("core"),
      stat_insns_(
          stat_group_.addScalar("instructions", "instructions retired")),
      stat_mem_insns_(
          stat_group_.addScalar("mem_instructions", "memory ops issued")),
      stat_cycles_(
          stat_group_.addScalar("busy_cycles", "cycles executing events"))
{
    wlc_assert(!meter_ || params_.compute_energy_per_insn >= 0.0);
    for (unsigned n = 0; n < kComputeTableSize; ++n)
        compute_aj_[n] = energy::toAttojoules(
            params_.compute_energy_per_insn * static_cast<double>(n));
}

Cycle
InOrderCore::executeEvent(const MemAccess &ev, Cycle now,
                          std::uint64_t *load_out)
{
    const unsigned insns = ev.computeGap + 1;
    Cycle t = now;

    // Fetch the gap instructions plus the memory instruction itself,
    // whole loop iterations at a time (outages only strike between
    // events, so nothing can observe the iterations one by one).
    unsigned left = insns;
    while (left > 0) {
        const FetchRun run = stream_.take(left, left);
        t = icache_.fetchRun(run.pc, run.count, t, run.iters);
        left -= run.count * run.iters;
    }

    if (meter_)
        meter_->addAj(energy::EnergyCategory::Compute,
                      insns < kComputeTableSize
                          ? compute_aj_[insns]
                          : energy::toAttojoules(
                                params_.compute_energy_per_insn *
                                static_cast<double>(insns)));
    instret_ += insns;
    stat_insns_ += static_cast<double>(insns);
    ++stat_mem_insns_;
    if (tl_ && instret_ >= next_progress_) {
        tl_->record(telemetry::EventType::CoreProgress, t, "core",
                    instret_);
        next_progress_ = instret_ + kProgressStride;
    }

    // Data access; in-order commit waits for the cache's answer.
    const auto res = dcache_.access(ev.op, ev.addr, ev.size, ev.value,
                                    load_out, t);

    // Trace replay carries no real dataflow, but the register file
    // still needs deterministic, execution-dependent content so a
    // JIT checkpoint/restore fault of the NVFF bank is observable:
    // fold every access (using the cache's answer for loads, so a
    // wrong load value also perturbs register state) into a register
    // chosen by the address.
    const std::uint64_t folded =
        (ev.op == MemOp::Load && load_out) ? *load_out : ev.value;
    const unsigned reg = static_cast<unsigned>(ev.addr >> 2) %
        RegisterFile::kNumRegs;
    regs_.write(reg, regs_.read(reg) * 0x9e3779b1u +
                         static_cast<std::uint32_t>(folded ^ ev.addr));

    stat_cycles_ += static_cast<double>(res.ready - now);
    return res.ready;
}

void
InOrderCore::ioState(StateIo &io)
{
    io.section("CORE");
    stream_.ioState(io);
    io.u64(next_progress_);
    auto regs = regs_.snapshot();
    for (std::uint32_t &v : regs)
        io.u32(v);
    if (io.loading())
        regs_.restore(regs);
    io.u64(instret_);
    stat_group_.ioState(io);
}

} // namespace cpu
} // namespace wlcache
