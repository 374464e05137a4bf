#include "mem/device/timing_model.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

std::unique_ptr<NvmTimingModel>
NvmTimingModel::create(const NvmParams &params)
{
    switch (params.model) {
      case NvmModel::SingleCursor:
        return std::make_unique<SingleCursorModel>(params);
      case NvmModel::BankedQueue:
        return std::make_unique<BankedQueueModel>(params);
    }
    panic("unknown NvmModel %d", static_cast<int>(params.model));
}

// --- SingleCursorModel ----------------------------------------------------

SingleCursorModel::SingleCursorModel(const NvmParams &params)
    : params_(params), bank_busy_until_(params.banks, 0)
{
    wlc_assert(params_.banks > 0);
}

NvmAccessTiming
SingleCursorModel::access(Addr addr, unsigned bytes, Cycle now,
                          bool is_write)
{
    // Wide (line) accesses stripe across banks in a pipelined burst;
    // arbitration is against the shared channel plus the base bank.
    Cycle &bank = bank_busy_until_[params_.bankOf(addr)];
    NvmAccessTiming t;
    const Cycle free = std::max(now, channel_busy_until_);
    t.bank_conflict = bank > free;
    t.start = std::max(free, bank);

    const Cycle burst = params_.beats(bytes) * params_.t_burst;
    if (is_write) {
        const Cycle pulses =
            params_.write_verify_retries * params_.writeRecovery();
        t.ready = t.start + params_.writeAckLatency(bytes) + pulses;
        bank = t.ready + params_.writeRecovery();
    } else {
        t.ready = t.start + params_.readLatency(bytes);
        bank = t.ready;
    }
    channel_busy_until_ = t.start + burst;
    return t;
}

void
SingleCursorModel::reset()
{
    channel_busy_until_ = 0;
    for (Cycle &b : bank_busy_until_)
        b = 0;
}

void
SingleCursorModel::ioState(StateIo &io)
{
    io.u64(channel_busy_until_);
    io.check(bank_busy_until_.size(), "nvm bank count");
    for (Cycle &b : bank_busy_until_)
        io.u64(b);
}

// --- BankedQueueModel -----------------------------------------------------

BankedQueueModel::BankedQueueModel(const NvmParams &params)
    : params_(params), banks_(params.banks)
{
    wlc_assert(params_.banks > 0);
    wlc_assert(params_.queue_depth > 0);
    wlc_assert(params_.row_bytes > 0);
    for (Bank &b : banks_)
        b.ring.assign(params_.queue_depth, 0);
}

NvmAccessTiming
BankedQueueModel::access(Addr addr, unsigned bytes, Cycle now,
                         bool is_write)
{
    Bank &b = banks_[params_.bankOf(addr)];
    NvmAccessTiming t;

    // Queue admission (back-pressure): the ring holds the completion
    // times of the last queue_depth requests this bank accepted; the
    // oldest entry is when a slot frees for this one. Per-bank
    // completion times are monotonic (service is in order), so the
    // oldest ring entry is also the minimum.
    Cycle admit = now;
    const Cycle slot_free = b.ring[b.head];
    if (slot_free > admit) {
        t.queue_wait = slot_free - admit;
        admit = slot_free;
    }

    // Channel arbitration, plus write-to-read turnaround: after a
    // write's data burst the channel needs tWTR to reverse direction
    // before it can return read data.
    Cycle xfer = std::max(admit, channel_busy_until_);
    if (!is_write && last_write_end_ > 0) {
        const Cycle wtr_ready = last_write_end_ + params_.t_wtr;
        if (wtr_ready > xfer) {
            t.turnaround_wait = wtr_ready - xfer;
            xfer = wtr_ready;
        }
    }
    const Cycle burst = params_.beats(bytes) * params_.t_burst;
    channel_busy_until_ = xfer + burst;
    t.start = xfer;

    // Bank service: command + data are delivered at the end of the
    // transfer; queued work ahead of us drains first.
    Cycle service = xfer + burst;
    if (b.work_done > service) {
        t.bank_conflict = true;
        service = b.work_done;
    }

    // Row buffer: activation only on a row change.
    const std::uint64_t row = addr / params_.row_bytes;
    t.row_hit = b.open_row == row;
    b.open_row = row;
    const Cycle activation = t.row_hit ? 0 : params_.t_rcd;

    Cycle done;
    if (is_write) {
        // The controller acks the write once it owns the data; the
        // bank programs it in the background (1 + verify retries
        // recovery-length pulses). Back-pressure, not the ack, is
        // what a full queue costs the issuer.
        t.ready = xfer + burst;
        done = service + activation + params_.t_cl +
               (1 + params_.write_verify_retries) *
                   params_.writeRecovery();
        last_write_end_ = xfer + burst;
    } else {
        done = service + activation + params_.t_cl + burst;
        t.ready = done;
    }

    b.work_done = done;
    b.ring[b.head] = done;
    b.head = b.head + 1 == b.ring.size() ? 0 : b.head + 1;
    return t;
}

void
BankedQueueModel::reset()
{
    channel_busy_until_ = 0;
    last_write_end_ = 0;
    for (Bank &b : banks_) {
        b.work_done = 0;
        b.open_row = kNoRow;  // Power loss closes every row.
        std::fill(b.ring.begin(), b.ring.end(), 0);
        b.head = 0;
    }
}

void
BankedQueueModel::ioState(StateIo &io)
{
    io.u64(channel_busy_until_);
    io.u64(last_write_end_);
    io.check(banks_.size(), "nvm bank count");
    for (Bank &b : banks_) {
        io.u64(b.work_done);
        io.u64(b.open_row);
        io.check(b.ring.size(), "nvm bank queue depth");
        for (Cycle &c : b.ring)
            io.u64(c);
        io.u32(b.head);
        wlc_assert(b.head < b.ring.size());
    }
}

} // namespace mem
} // namespace wlcache
