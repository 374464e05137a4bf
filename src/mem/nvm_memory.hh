/**
 * @file
 * Functional + timing model of the NVM main memory. Contents survive
 * power failure (nothing is cleared on an outage). The timing core is
 * pluggable (mem/device/timing_model.hh): the legacy single-cursor
 * channel arbitration, or a banked model with per-bank request
 * queues, write-to-read turnaround, and row-buffer accounting.
 * Asynchronous write-backs contend with demand traffic exactly as
 * the paper's WL-Cache cleaning traffic does.
 *
 * On top of the timing core sit three optional device-policy layers
 * (all serialized bit-exactly through the snapshot layer):
 *  - per-line write-endurance tracking (device/wear_tracker.hh),
 *  - address-rotation wear leveling (device/wear_rotate.hh), which
 *    remaps the timing/wear identity of a line but not its bytes,
 *  - an STT-RAM hybrid fast region (device/hybrid_region.hh) that
 *    promotes write-hot lines and serves them without main-array
 *    wear.
 */

#ifndef WLCACHE_MEM_NVM_MEMORY_HH
#define WLCACHE_MEM_NVM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "energy/energy_meter.hh"
#include "mem/device/hybrid_region.hh"
#include "mem/device/timing_model.hh"
#include "mem/device/wear_rotate.hh"
#include "mem/device/wear_tracker.hh"
#include "mem/nvm_params.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace telemetry { class TimelineBuffer; }

namespace mem {

/** Result of a timed NVM access. */
struct NvmAccessResult
{
    Cycle start;     //!< When the channel accepted the request.
    Cycle ready;     //!< When data (read) or ack (write) is available.
};

/** Device counters a run reports (the run record's nvm_device group). */
struct NvmDeviceStats
{
    std::uint64_t bank_conflicts = 0;  //!< Gated by pending bank work.
    std::uint64_t queue_stall_cycles = 0;  //!< On a full bank queue.
    std::uint64_t turnaround_stall_cycles = 0;  //!< Reads behind tWTR.
    std::uint64_t wear_max = 0;  //!< Top per-line writes (track_wear).
    std::uint64_t wear_lines_touched = 0;  //!< Lines written (track_wear).
    /** Writes left on the most-worn line (all of them untracked). */
    std::uint64_t lifetime_headroom = 0;
    /**
     * p99 write latency in cycles: the upper edge of the first log2
     * histogram bucket covering 99% of writes (0 with no write).
     */
    double write_p99_latency = 0.0;
    std::uint64_t row_hits = 0;    //!< Row-buffer hits (banked model).
    std::uint64_t row_misses = 0;  //!< Row-buffer misses (banked model).
};

/**
 * Byte-addressable non-volatile main memory with one channel.
 * Functional state is a flat byte array; all accesses are bounds
 * checked against the configured size.
 */
class NvmMemory
{
  public:
    /**
     * @param params Device parameters.
     * @param meter Energy meter charged for every access (may be
     *        null for purely functional use).
     */
    explicit NvmMemory(const NvmParams &params,
                       energy::EnergyMeter *meter = nullptr);

    const NvmParams &params() const { return params_; }

    // --- Timed interface -------------------------------------------------

    /**
     * Timed read of @p bytes at @p addr issued at cycle @p now.
     * Copies data into @p out when non-null.
     */
    NvmAccessResult read(Addr addr, unsigned bytes, Cycle now,
                         void *out = nullptr);

    /** Timed write of @p bytes at @p addr issued at cycle @p now. */
    NvmAccessResult write(Addr addr, unsigned bytes, const void *data,
                          Cycle now);

    /** Cycle at which the shared channel becomes free. */
    Cycle channelBusyUntil() const
    {
        return model_->channelBusyUntil();
    }

    /** Clear channel/bank/queue state between power cycles. */
    void resetChannel();

    // --- Functional interface (no timing/energy) -------------------------

    /** Functional peek (testing / consistency checking). */
    void peek(Addr addr, unsigned bytes, void *out) const;

    /** Functional poke (test setup). */
    void poke(Addr addr, unsigned bytes, const void *data);

    /** Read a little-endian integer of @p bytes functionally. */
    std::uint64_t peekInt(Addr addr, unsigned bytes) const;

    /** Configured capacity in bytes. */
    std::size_t sizeBytes() const { return data_.size(); }

    /**
     * Functional snapshot of [@p addr, @p addr + @p bytes): a copy of
     * the persistent contents for golden-model differencing. Bounds
     * checked like every other access.
     */
    std::vector<std::uint8_t> snapshotRange(Addr addr,
                                            std::size_t bytes) const;

    // --- Statistics -------------------------------------------------------

    stats::StatGroup &statGroup() { return stat_group_; }
    std::uint64_t numReads() const;
    std::uint64_t numWrites() const;
    std::uint64_t bytesWritten() const;

    /** Cycles accesses spent stalled on a full bank queue. */
    std::uint64_t queueStallCycles() const;
    /** Row-buffer hits (banked model; 0 under the legacy model). */
    std::uint64_t rowHits() const;
    /** Row-buffer misses (banked model; 0 under the legacy model). */
    std::uint64_t rowMisses() const;

    /** The device counters of the run so far. */
    NvmDeviceStats deviceStats() const;

    /** Wear tracker (null when track_wear is off); tests. */
    const WearTracker *wearTracker() const { return wear_.get(); }
    /** Rotation layer (null when wear_scheme is none); tests. */
    const WearRotator *wearRotator() const { return rotator_.get(); }
    /** Hybrid fast region (null when hybrid_lines is 0); tests. */
    const HybridRegion *hybridRegion() const { return hybrid_.get(); }

    /** Reset only the statistics (not contents). */
    void resetStats();

    /** Attach a telemetry timeline (null detaches); observational. */
    void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }

    // --- Snapshot support -------------------------------------------------

    /** Bytes per copy-on-write journal page. */
    static constexpr std::size_t kJournalPageBytes = 4096;

    /**
     * Forget which pages have been modified. Called once after the
     * initial program image is poked in, so the journal tracks only
     * pages the *run* dirtied — a snapshot then stores those pages
     * instead of the whole array (restore starts from a freshly
     * constructed memory holding the same initial image).
     */
    void clearJournal();

    /**
     * Serialize timing-model cursors, statistics, wear/rotation/
     * hybrid state, and the journal pages (sorted by page index for
     * a deterministic byte stream). A load goes onto a memory holding
     * the pristine initial image: journal pages overwrite their page
     * contents and become the new journal (so a later snapshot of the
     * resumed run still covers every page dirtied since construction).
     */
    void ioState(StateIo &io);

  private:
    /**
     * The byte array: an anonymous private mapping. The kernel
     * zero-fills pages on first touch, so building a memory costs
     * nothing per page and only pages a run touches become resident.
     */
    class ZeroMapping
    {
      public:
        explicit ZeroMapping(std::size_t bytes);
        ~ZeroMapping();
        ZeroMapping(const ZeroMapping &) = delete;
        ZeroMapping &operator=(const ZeroMapping &) = delete;

        std::uint8_t *data() const { return data_; }
        std::size_t size() const { return size_; }

      private:
        std::uint8_t *data_;
        std::size_t size_;
    };

    void checkRange(Addr addr, unsigned bytes) const;

    /** Timing/wear identity of @p addr (rotation remap applied). */
    Addr timingAddr(Addr addr) const;

    /** Record wear for every line [@p addr, @p addr + @p bytes). */
    void recordWear(Addr addr, unsigned bytes);

    /** Account model-reported stalls/conflicts/row outcomes. */
    void accountTiming(const NvmAccessTiming &t, Addr addr,
                       Cycle now);

    /** Record [@p addr, @p addr + @p bytes) in the COW journal. */
    void touchPages(Addr addr, unsigned bytes);

    NvmParams params_;
    energy::EnergyMeter *meter_;
    telemetry::TimelineBuffer *tl_ = nullptr;
    ZeroMapping data_;
    std::unique_ptr<NvmTimingModel> model_;
    std::unique_ptr<WearTracker> wear_;
    std::unique_ptr<WearRotator> rotator_;
    std::unique_ptr<HybridRegion> hybrid_;
    /** Fast-region port cursor (separate from the main channel). */
    Cycle fast_busy_until_ = 0;
    std::unordered_set<std::uint64_t> touched_pages_;

    stats::StatGroup stat_group_;
    stats::Scalar &stat_reads_;
    stats::Scalar &stat_writes_;
    stats::Scalar &stat_bytes_read_;
    stats::Scalar &stat_bytes_written_;
    stats::Scalar &stat_bank_conflicts_;
    stats::Scalar &stat_queue_stall_cycles_;
    stats::Scalar &stat_turnaround_stall_cycles_;
    stats::Scalar &stat_row_hits_;
    stats::Scalar &stat_row_misses_;
    stats::Scalar &stat_fast_reads_;
    stats::Scalar &stat_fast_writes_;
    stats::Scalar &stat_promotions_;
    stats::Scalar &stat_evictions_;
    stats::Distribution &stat_write_latency_;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_NVM_MEMORY_HH
