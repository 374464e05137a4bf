/**
 * @file
 * Pluggable NVM device timing cores. NvmMemory owns the functional
 * byte array, energy accounting, wear tracking, and statistics; a
 * timing model owns only the arbitration state (cursors, queues, open
 * rows) and answers one question: given an access issued at cycle
 * `now`, when does the channel accept it and when is it done?
 *
 * Two models are registered:
 *
 *  - SingleCursorModel reproduces the original NvmMemory arbitration
 *    bit for bit: one channel busy-until cursor plus one busy-until
 *    cursor per bank, no turnaround, activation charged per access.
 *
 *  - BankedQueueModel adds per-bank request queues with configurable
 *    depth and back-pressure (an access stalls until the oldest
 *    queued request in its bank completes when the queue is full),
 *    channel-level write-to-read turnaround (tWTR), and row-buffer
 *    hit/miss activation accounting. Writes are acknowledged once the
 *    controller has the data (the bank programs them in the
 *    background); reads drain the bank's queued work first.
 *
 * Both models are closed-form in `now` — no per-cycle state advance —
 * which is what keeps percycle and skip_ahead runs bit-identical by
 * construction (DESIGN.md §15).
 */

#ifndef WLCACHE_MEM_DEVICE_TIMING_MODEL_HH
#define WLCACHE_MEM_DEVICE_TIMING_MODEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/nvm_params.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

/** Everything a timing core reports about one access. */
struct NvmAccessTiming
{
    Cycle start = 0;  //!< Channel accepted the request.
    Cycle ready = 0;  //!< Data (read) or ack (write) available.
    /** Activation was skipped because the row buffer was open. */
    bool row_hit = false;
    /** Cycles spent waiting for a bank-queue slot (back-pressure). */
    Cycle queue_wait = 0;
    /** Cycles of write-to-read turnaround (tWTR) paid. */
    Cycle turnaround_wait = 0;
    /** Pending bank work gated this access. */
    bool bank_conflict = false;
};

/** Abstract device timing core. */
class NvmTimingModel
{
  public:
    virtual ~NvmTimingModel() = default;

    /** Arbitrate one access and advance the model's cursors. */
    virtual NvmAccessTiming access(Addr addr, unsigned bytes,
                                   Cycle now, bool is_write) = 0;

    /** Cycle at which the shared channel becomes free. */
    virtual Cycle channelBusyUntil() const = 0;

    /** Clear all arbitration state between power cycles. */
    virtual void reset() = 0;

    /** Serialize cursors/queues (bit-exact, deterministic order). */
    virtual void ioState(StateIo &io) = 0;

    /** Build the model @p params selects. */
    static std::unique_ptr<NvmTimingModel> create(
        const NvmParams &params);
};

/** Legacy arbitration: shared channel + per-bank busy cursors. */
class SingleCursorModel : public NvmTimingModel
{
  public:
    explicit SingleCursorModel(const NvmParams &params);

    NvmAccessTiming access(Addr addr, unsigned bytes, Cycle now,
                           bool is_write) override;
    Cycle channelBusyUntil() const override
    {
        return channel_busy_until_;
    }
    void reset() override;
    void ioState(StateIo &io) override;

  private:
    const NvmParams params_;
    Cycle channel_busy_until_ = 0;
    std::vector<Cycle> bank_busy_until_;
};

/** Banked, queued arbitration with tWTR and row-buffer accounting. */
class BankedQueueModel : public NvmTimingModel
{
  public:
    explicit BankedQueueModel(const NvmParams &params);

    NvmAccessTiming access(Addr addr, unsigned bytes, Cycle now,
                           bool is_write) override;
    Cycle channelBusyUntil() const override
    {
        return channel_busy_until_;
    }
    void reset() override;
    void ioState(StateIo &io) override;

  private:
    /** Row-buffer sentinel: no row open (post power cycle). */
    static constexpr std::uint64_t kNoRow = ~0ull;

    struct Bank
    {
        /** Bank finishes all accepted work at this cycle. */
        Cycle work_done = 0;
        /** Currently open row (kNoRow when closed). */
        std::uint64_t open_row = kNoRow;
        /**
         * Completion times of the last queue_depth accepted
         * requests, a ring with @c head at the oldest: when the ring
         * is full of pending work, the oldest entry is the cycle a
         * slot frees for the next request.
         */
        std::vector<Cycle> ring;
        unsigned head = 0;
    };

    const NvmParams params_;
    Cycle channel_busy_until_ = 0;
    /** End of the last write data burst (drives tWTR for reads). */
    Cycle last_write_end_ = 0;
    std::vector<Bank> banks_;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_DEVICE_TIMING_MODEL_HH
