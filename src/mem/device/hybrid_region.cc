#include "mem/device/hybrid_region.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

HybridRegion::HybridRegion(unsigned slots, unsigned promote_writes)
    : promote_writes_(promote_writes), slots_(slots)
{
    wlc_assert(!slots_.empty());
    wlc_assert(promote_writes_ > 0);
}

HybridRegion::Slot *
HybridRegion::findSlot(std::uint64_t line)
{
    for (Slot &s : slots_)
        if (s.line == line)
            return &s;
    return nullptr;
}

HybridRegion::WriteOutcome
HybridRegion::onWrite(std::uint64_t line)
{
    WriteOutcome out;
    ++tick_;
    if (Slot *s = findSlot(line)) {
        s->last_use = tick_;
        out.fast = true;
        return out;
    }

    const std::uint32_t heat = ++heat_[line];
    if (heat < promote_writes_)
        return out;

    // Promote: empty slot first, else evict the LRU resident
    // (smallest last_use; ties break on the lowest slot index, so
    // the choice is deterministic).
    Slot *victim = nullptr;
    for (Slot &s : slots_) {
        if (s.line == kEmpty) {
            victim = &s;
            break;
        }
        if (!victim || s.last_use < victim->last_use)
            victim = &s;
    }
    if (victim->line != kEmpty) {
        out.evicted = true;
        out.evicted_line = victim->line;
    }
    victim->line = line;
    victim->last_use = tick_;
    heat_.erase(line);  // Evicted lines re-earn their heat.
    out.fast = true;
    out.promoted = true;
    return out;
}

bool
HybridRegion::onRead(std::uint64_t line)
{
    if (Slot *s = findSlot(line)) {
        s->last_use = ++tick_;
        return true;
    }
    return false;
}

bool
HybridRegion::resident(std::uint64_t line) const
{
    for (const Slot &s : slots_)
        if (s.line == line)
            return true;
    return false;
}

void
HybridRegion::reset()
{
    for (Slot &s : slots_)
        s = Slot{};
    heat_.clear();
    tick_ = 0;
}

void
HybridRegion::ioState(StateIo &io)
{
    io.u64(tick_);
    io.check(slots_.size(), "hybrid region size");
    for (Slot &s : slots_) {
        io.u64(s.line);
        io.u64(s.last_use);
    }
    io.sorted(heat_, [&io](std::uint64_t &line, std::uint32_t &h) {
        io.u64(line);
        io.u32(h);
    });
}

} // namespace mem
} // namespace wlcache
