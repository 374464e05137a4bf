#include "core/dirty_queue.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace core {

DirtyQueue::DirtyQueue(unsigned capacity, cache::ReplPolicy repl)
    : capacity_(capacity), repl_(repl), slots_(capacity)
{
    wlc_assert(capacity_ > 0);
}

unsigned
DirtyQueue::pendingCount() const
{
    unsigned n = 0;
    for (const auto &e : slots_)
        if (e.state == DqEntryState::Pending)
            ++n;
    return n;
}

std::optional<unsigned>
DirtyQueue::insert(Addr line_addr)
{
    for (unsigned i = 0; i < capacity_; ++i) {
        if (slots_[i].state == DqEntryState::Free) {
            DqEntry &e = slots_[i];
            e.state = DqEntryState::Pending;
            e.line_addr = line_addr;
            e.insert_seq = ++seq_;
            e.touch_seq = seq_;
            e.wb_ready = 0;
            ++occupied_;
            return i;
        }
    }
    return std::nullopt;
}

void
DirtyQueue::touch(Addr line_addr)
{
    // Refresh the youngest pending entry for this address; older
    // duplicates are stale w.r.t. the new store.
    int best = -1;
    std::uint64_t best_seq = 0;
    for (unsigned i = 0; i < capacity_; ++i) {
        const DqEntry &e = slots_[i];
        if (e.state == DqEntryState::Pending &&
            e.line_addr == line_addr && e.insert_seq >= best_seq) {
            best = static_cast<int>(i);
            best_seq = e.insert_seq;
        }
    }
    if (best >= 0)
        slots_[best].touch_seq = ++seq_;
}

std::optional<unsigned>
DirtyQueue::selectVictim() const
{
    int best = -1;
    std::uint64_t best_seq = UINT64_MAX;
    for (unsigned i = 0; i < capacity_; ++i) {
        const DqEntry &e = slots_[i];
        if (e.state != DqEntryState::Pending)
            continue;
        const std::uint64_t s = repl_ == cache::ReplPolicy::FIFO
            ? e.insert_seq : e.touch_seq;
        if (s < best_seq) {
            best_seq = s;
            best = static_cast<int>(i);
        }
    }
    if (best < 0)
        return std::nullopt;
    return static_cast<unsigned>(best);
}

void
DirtyQueue::markInFlight(unsigned slot, Cycle wb_ready)
{
    wlc_assert(slot < capacity_);
    DqEntry &e = slots_[slot];
    wlc_assert(e.state == DqEntryState::Pending);
    e.state = DqEntryState::InFlight;
    e.wb_ready = wb_ready;
    if (wb_ready < next_ack_)
        next_ack_ = wb_ready;
}

void
DirtyQueue::remove(unsigned slot)
{
    wlc_assert(slot < capacity_);
    DqEntry &e = slots_[slot];
    wlc_assert(e.state != DqEntryState::Free);
    e.state = DqEntryState::Free;
    wlc_assert(occupied_ > 0);
    --occupied_;
}

std::optional<Cycle>
DirtyQueue::earliestInFlightReady() const
{
    std::optional<Cycle> best;
    for (const auto &e : slots_) {
        if (e.state == DqEntryState::InFlight &&
            (!best || e.wb_ready < *best)) {
            best = e.wb_ready;
        }
    }
    return best;
}

void
DirtyQueue::retireAcked(Cycle now)
{
    next_ack_ = kNoAck;
    for (unsigned i = 0; i < capacity_; ++i) {
        if (slots_[i].state != DqEntryState::InFlight)
            continue;
        if (slots_[i].wb_ready <= now)
            remove(i);
        else if (slots_[i].wb_ready < next_ack_)
            next_ack_ = slots_[i].wb_ready;
    }
}

const DqEntry &
DirtyQueue::entry(unsigned slot) const
{
    wlc_assert(slot < capacity_);
    return slots_[slot];
}

void
DirtyQueue::clear()
{
    for (auto &e : slots_)
        e.state = DqEntryState::Free;
    occupied_ = 0;
    next_ack_ = kNoAck;
}

void
DirtyQueue::ioState(StateIo &io)
{
    io.section("DQ  ");
    io.check(slots_.size(), "dirty-queue snapshot capacity");
    for (DqEntry &e : slots_) {
        io.u8(e.state);
        io.u64(e.line_addr);
        io.u64(e.insert_seq);
        io.u64(e.touch_seq);
        io.u64(e.wb_ready);
    }
    io.u64(seq_);
    io.u32(occupied_);
    if (io.loading())
        next_ack_ = 0;
}

} // namespace core
} // namespace wlcache
