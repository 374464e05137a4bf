/**
 * @file
 * Sequential NVM journal for log-structured write paths (DESIGN.md
 * §17). A reserved region at the top of the NVM address space is
 * divided into fixed-size record slots grouped into segments; cache
 * write-backs append self-describing records (seqno + checksum +
 * line payload) at a cyclic cursor instead of writing their home
 * address in place. Sequential appends hit the banked device model's
 * row buffer where in-place cleans would miss, and spread wear over
 * the region instead of hammering hot lines.
 *
 * The line → slot mapping table is *volatile* — it is lost at every
 * power failure and reconstructed at boot by a timed replay scan of
 * every slot header (max-seqno-wins over all checksum-valid records).
 * The header checksum is the commit point: an append lays down the
 * payload and then the checksummed header in one slot write, so a
 * record whose header validates has its payload on media (the
 * in-order device model admits no other interleaving), and a torn or
 * corrupt header fails the checksum and the slot is skipped cleanly.
 * Correctness never depends on volatile state: seqnos strictly
 * increase and are never reused, and compaction migrates a line home
 * *before* its segment is reused. The functional scan used by the
 * boot replay is the same code the crash-consistency oracle uses to
 * build its persistent overlay, so fault-injection campaigns
 * genuinely exercise the recovery path.
 *
 * Slots are placed at a stride padded up to the channel stripe
 * (beat x banks), so consecutive appends land in the *same* bank and
 * walk its row buffer sequentially — the row-hit advantage over
 * in-place writes is structural, not incidental.
 */

#ifndef WLCACHE_MEM_LOG_NVM_JOURNAL_HH
#define WLCACHE_MEM_LOG_NVM_JOURNAL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/nvm_memory.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace telemetry { class TimelineBuffer; }

namespace mem {

/** Journal geometry and compaction policy knobs. */
struct NvmLogParams
{
    /** Record slots in the journal region (region capacity). */
    unsigned region_lines = 256;
    /** Reclamation granule; slots_per_segment = this / slot stride. */
    unsigned segment_bytes = 1024;
    /**
     * Live-slot fraction that triggers background compaction on the
     * append path (in addition to the hard free-space reserve the
     * cache requests for its JIT checkpoint).
     */
    double compaction_watermark = 0.75;
};

/** Journal statistics (all monotonic; serialized bit-exactly). */
struct NvmJournalStats
{
    std::uint64_t appends = 0;          //!< Records appended.
    std::uint64_t append_bytes = 0;     //!< Header+payload bytes.
    std::uint64_t replays = 0;          //!< Boot replay scans.
    std::uint64_t replay_records = 0;   //!< Valid records applied.
    std::uint64_t replay_bytes = 0;     //!< Header bytes scanned.
    std::uint64_t compactions = 0;      //!< Segments reclaimed.
    std::uint64_t compacted_lines = 0;  //!< Live lines migrated home.
    std::uint64_t compacted_bytes = 0;  //!< Bytes written home.
    /** Journal-resident lines at end of run (run record only). */
    std::uint64_t live_lines = 0;
};

/** One decoded, checksum-valid journal record (scan output). */
struct NvmLogRecord
{
    std::uint64_t seqno = 0;
    Addr line_addr = 0;
    unsigned slot = 0;
};

/**
 * The append allocator + mapping table + compactor over one NVM
 * journal region. All timed traffic goes through the owning
 * NvmMemory, so device timing, energy, and wear apply exactly as
 * they do to demand traffic.
 */
class NvmJournal
{
  public:
    /** Fixed per-record header: seqno, line_addr, len, checksum. */
    static constexpr unsigned kHeaderBytes = 24;

    /**
     * @param params Geometry/policy knobs (validated here).
     * @param line_bytes Payload size: one cache line.
     * @param nvm Backing memory; the region occupies its top bytes.
     */
    NvmJournal(const NvmLogParams &params, unsigned line_bytes,
               NvmMemory &nvm);

    // --- Geometry --------------------------------------------------------

    unsigned slotBytes() const { return kHeaderBytes + line_bytes_; }
    /**
     * Slot placement stride: slotBytes() padded up to the channel
     * stripe (beat x banks) so every slot starts in the same bank and
     * sequential appends walk that bank's row buffer. The pad bytes
     * are never written.
     */
    unsigned slotStride() const { return slot_stride_; }
    unsigned totalSlots() const { return params_.region_lines; }
    unsigned slotsPerSegment() const { return slots_per_segment_; }
    /** First byte of the journal region (home space ends here). */
    Addr regionStart() const { return region_start_; }
    Addr regionEnd() const { return region_start_ + region_bytes_; }
    Addr slotAddr(unsigned slot) const
    {
        return region_start_ +
            static_cast<Addr>(slot) * slot_stride_;
    }

    // --- Append path -----------------------------------------------------

    /**
     * Guarantee @p reserve_slots appendable slots without further
     * compaction (the JIT checkpoint's worst case), compacting
     * segments ahead of the cursor as needed, and run the watermark
     * policy. @return possibly-advanced cycle.
     */
    Cycle ensureSpace(unsigned reserve_slots, Cycle now);

    /**
     * Append one record for @p line_addr (one line of @p data) at the
     * cursor. The caller must have guaranteed space (ensureSpace, or
     * the checkpoint reserve). @return NVM ack cycle.
     */
    Cycle append(Addr line_addr, const std::uint8_t *data, Cycle now);

    /** Contiguous dead slots ahead of the cursor (cyclic). */
    unsigned freeSlotsAhead() const;

    // --- Read path -------------------------------------------------------

    /** Journal slot currently mapped for @p line_addr, if any. */
    const unsigned *lookup(Addr line_addr) const
    {
        const auto it = mapping_.find(line_addr);
        return it == mapping_.end() ? nullptr : &it->second;
    }

    /**
     * Timed read of the payload of @p slot into @p out.
     * @return NVM data-ready cycle.
     */
    Cycle readPayload(unsigned slot, std::uint8_t *out,
                      Cycle now) const;

    /** Functional (untimed) payload peek of @p slot. */
    void peekPayload(unsigned slot, std::uint8_t *out) const;

    // --- Crash recovery --------------------------------------------------

    /** Volatile state is gone (mapping, cursor, live counts). */
    void onPowerLoss();

    /**
     * Boot replay: timed scan of every slot *header* (payloads stay
     * in NVM — the mapping only needs to know where they are),
     * checksum-validate each, rebuild the mapping (max seqno wins per
     * line), the next seqno, and the cursor. Runs before the NVFF
     * restore completes. @return cycle when the last read is ready.
     */
    Cycle bootReplay(Cycle now);

    /**
     * The functional core of bootReplay(): decode every checksum-
     * valid record in the region without timing or energy. Shared by
     * the boot path and the consistency oracle's overlay collection,
     * so what the oracle checks is exactly what a post-outage boot
     * would reconstruct.
     */
    std::vector<NvmLogRecord> scan() const;

    /**
     * Migrate every live line home and reclaim every segment (timed);
     * used at graceful completion so raw NVM equals the final image.
     * @return completion cycle.
     */
    Cycle compactAll(Cycle now);

    // --- Introspection ---------------------------------------------------

    const NvmJournalStats &stats() const { return stats_; }
    /** Lines whose newest persisted version lives in the journal. */
    std::size_t liveLines() const { return mapping_.size(); }
    std::uint64_t nextSeqno() const { return next_seqno_; }
    unsigned cursor() const { return cursor_; }

    void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }

    /** Serialize cursor/seqno/mapping/stats ("NLOG" section). */
    void ioState(StateIo &io);

  private:
    /** slot_line_ sentinel: slot holds no live record. */
    static constexpr Addr kNoLine = ~static_cast<Addr>(0);

    unsigned segmentOf(unsigned slot) const
    {
        return slot / slots_per_segment_;
    }

    /** Record @p slot as the live location of @p line_addr. */
    void mapLine(Addr line_addr, unsigned slot);
    /** Drop the mapping entry for @p line_addr. */
    void unmapLine(Addr line_addr);

    /**
     * First live slot at or after the cursor in cyclic order, or -1
     * when nothing is live. Liveness is per-slot (not per-segment)
     * because a replay-reconstructed cursor can land in a segment
     * that still holds live wrap-around records ahead of it.
     */
    int firstLiveSlotAhead() const;

    /**
     * Reclaim one segment: timed journal payload reads + timed home
     * line writes for every live record (ascending slot order), then
     * every slot in the segment is free for reuse.
     * @return completion cycle.
     */
    Cycle compactSegment(unsigned seg, Cycle now);

    NvmLogParams params_;
    unsigned line_bytes_;
    NvmMemory &nvm_;
    telemetry::TimelineBuffer *tl_ = nullptr;

    Addr region_start_ = 0;
    std::size_t region_bytes_ = 0;
    unsigned slot_stride_ = 0;
    unsigned slots_per_segment_ = 0;
    unsigned num_segments_ = 0;

    /** line home address -> journal slot of its newest record. */
    std::unordered_map<Addr, unsigned> mapping_;
    /** Inverse view: per-slot live line address (kNoLine = dead). */
    std::vector<Addr> slot_line_;
    unsigned cursor_ = 0;          //!< Next slot to append into.
    std::uint64_t next_seqno_ = 1; //!< Strictly increasing, never reused.

    NvmJournalStats stats_;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_LOG_NVM_JOURNAL_HH
