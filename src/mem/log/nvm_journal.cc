#include "mem/log/nvm_journal.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace mem {

namespace {

/** FNV-1a-32 over the record header fields. */
std::uint32_t
fnv1a32(const std::uint8_t *data, std::size_t n,
        std::uint32_t h = 0x811c9dc5u)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x01000193u;
    }
    return h;
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

} // anonymous namespace

NvmJournal::NvmJournal(const NvmLogParams &params, unsigned line_bytes,
                       NvmMemory &nvm)
    : params_(params), line_bytes_(line_bytes), nvm_(nvm)
{
    wlc_assert(line_bytes_ >= 4 && line_bytes_ <= 256,
               "journal payload must be one cache line");
    wlc_assert(params_.region_lines >= 8,
               "log.region_lines too small (need >= 8 slots)");
    wlc_assert(params_.segment_bytes >= slotBytes(),
               "log.segment_bytes %u below one record slot (%u B)",
               params_.segment_bytes, slotBytes());
    wlc_assert(params_.compaction_watermark > 0.0 &&
                   params_.compaction_watermark < 1.0,
               "log.compaction_watermark must be in (0, 1)");

    // Pad the slot stride to the channel stripe (beat x banks): every
    // slot then starts in the same bank, so sequential appends and
    // the boot header scan walk one bank's row buffer instead of
    // striding across all banks (where every access would re-open a
    // row). The pad bytes are never written.
    const unsigned stripe = kChannelBeatBytes * nvm_.params().banks;
    slot_stride_ = (slotBytes() + stripe - 1) / stripe * stripe;
    wlc_assert(params_.segment_bytes >= slot_stride_,
               "log.segment_bytes %u below one slot stride (%u B)",
               params_.segment_bytes, slot_stride_);

    slots_per_segment_ = params_.segment_bytes / slot_stride_;
    num_segments_ =
        (params_.region_lines + slots_per_segment_ - 1) /
        slots_per_segment_;
    wlc_assert(num_segments_ >= 2,
               "journal needs >= 2 segments (region_lines %u, "
               "%u slots/segment)",
               params_.region_lines, slots_per_segment_);
    // Round the region down to whole segments so reclamation is
    // uniform; the ring must keep a checkpoint's worth of appendable
    // slots even with one whole segment un-reclaimable.
    params_.region_lines = num_segments_ * slots_per_segment_;
    wlc_assert(params_.region_lines - slots_per_segment_ >= 8,
               "journal too small: one segment of slack leaves fewer "
               "than 8 appendable slots");

    region_bytes_ =
        static_cast<std::size_t>(params_.region_lines) * slot_stride_;
    wlc_assert(region_bytes_ < nvm_.sizeBytes() / 2,
               "journal region (%zu B) would cover half the NVM",
               region_bytes_);
    // Carve the region out of the top of the address space, aligned
    // down to a line so home-space line addresses never overlap it.
    region_start_ = (nvm_.sizeBytes() - region_bytes_) /
        line_bytes_ * line_bytes_;

    slot_line_.assign(params_.region_lines, kNoLine);
}

void
NvmJournal::mapLine(Addr line_addr, unsigned slot)
{
    const auto it = mapping_.find(line_addr);
    if (it != mapping_.end()) {
        slot_line_[it->second] = kNoLine;
        it->second = slot;
    } else {
        mapping_.emplace(line_addr, slot);
    }
    slot_line_[slot] = line_addr;
}

void
NvmJournal::unmapLine(Addr line_addr)
{
    const auto it = mapping_.find(line_addr);
    if (it == mapping_.end())
        return;
    slot_line_[it->second] = kNoLine;
    mapping_.erase(it);
}

unsigned
NvmJournal::freeSlotsAhead() const
{
    unsigned free = 0;
    for (; free < params_.region_lines; ++free) {
        const unsigned slot = (cursor_ + free) % params_.region_lines;
        if (slot_line_[slot] != kNoLine)
            break;
    }
    return free;
}

int
NvmJournal::firstLiveSlotAhead() const
{
    for (unsigned i = 0; i < params_.region_lines; ++i) {
        const unsigned slot = (cursor_ + i) % params_.region_lines;
        if (slot_line_[slot] != kNoLine)
            return static_cast<int>(slot);
    }
    return -1;
}

Cycle
NvmJournal::compactSegment(unsigned seg, Cycle now)
{
    // Ascending slot order via the inverse view: deterministic
    // regardless of the unordered mapping's iteration order, so cold
    // runs, snapshot resumes, and both step modes migrate (and hence
    // time) identically.
    Cycle t = now;
    std::uint8_t buf[256];
    unsigned migrated = 0;
    const unsigned lo = seg * slots_per_segment_;
    for (unsigned slot = lo; slot < lo + slots_per_segment_; ++slot) {
        const Addr line = slot_line_[slot];
        if (line == kNoLine)
            continue;
        // Migrate home *before* the slot can be reused: a crash at
        // any point leaves either the (still-valid) journal record or
        // the home copy carrying the bytes.
        t = readPayload(slot, buf, t);
        const auto res = nvm_.write(line, line_bytes_, buf, t);
        t = res.ready;
        unmapLine(line);
        ++migrated;
        ++stats_.compacted_lines;
        stats_.compacted_bytes += line_bytes_;
    }
    ++stats_.compactions;
    WLC_TIMELINE(tl_, LogCompact, now, "nvm_log", seg, migrated);
    return t;
}

Cycle
NvmJournal::ensureSpace(unsigned reserve_slots, Cycle now)
{
    wlc_assert(reserve_slots + 1 <=
                   params_.region_lines - slots_per_segment_,
               "journal reserve %u unreachable with %u slots in %u-"
               "slot segments",
               reserve_slots, params_.region_lines,
               slots_per_segment_);
    Cycle t = now;
    // Hard guarantee: the JIT checkpoint must be able to append its
    // worst case without compacting (compaction's home writes are
    // not in the checkpoint energy bound). Compact the segment that
    // holds the blocking (oldest-ahead) live slot until enough
    // contiguous dead slots sit in front of the cursor.
    while (freeSlotsAhead() < reserve_slots + 1) {
        const int slot = firstLiveSlotAhead();
        wlc_assert(slot >= 0, "journal wedged: no reclaimable slot");
        t = compactSegment(segmentOf(static_cast<unsigned>(slot)), t);
    }
    // Soft watermark: bound the live set (mapping footprint, replay
    // cost) by migrating the oldest-ahead segment once the live
    // fraction crosses the knob.
    const double live_frac =
        static_cast<double>(mapping_.size()) /
        static_cast<double>(params_.region_lines);
    if (live_frac >= params_.compaction_watermark) {
        const int slot = firstLiveSlotAhead();
        if (slot >= 0)
            t = compactSegment(segmentOf(static_cast<unsigned>(slot)),
                               t);
    }
    return t;
}

Cycle
NvmJournal::append(Addr line_addr, const std::uint8_t *data, Cycle now)
{
    wlc_assert(line_addr % line_bytes_ == 0,
               "journal append of unaligned line 0x%llx",
               static_cast<unsigned long long>(line_addr));
    wlc_assert(line_addr + line_bytes_ <= region_start_,
               "journal append for a line inside the journal region "
               "(0x%llx; home space ends at 0x%llx)",
               static_cast<unsigned long long>(line_addr),
               static_cast<unsigned long long>(region_start_));

    // Payload first, checksummed header last: the header is the
    // commit point. The slot is laid down in one in-order device
    // write, so a crash leaves either no valid header (slot skipped
    // at replay) or a fully persisted record — never a validated
    // header over a torn payload.
    std::uint8_t rec[kHeaderBytes + 256];
    putU64(rec + 0, next_seqno_);
    putU64(rec + 8, line_addr);
    putU32(rec + 16, line_bytes_);
    putU32(rec + 20, fnv1a32(rec, 20));
    std::memcpy(rec + kHeaderBytes, data, line_bytes_);

    const auto res = nvm_.write(slotAddr(cursor_), slotBytes(), rec,
                                now);
    mapLine(line_addr, cursor_);
    WLC_TIMELINE(tl_, LogAppend, now, "nvm_log", line_addr, cursor_);
    ++stats_.appends;
    stats_.append_bytes += slotBytes();
    cursor_ = (cursor_ + 1) % params_.region_lines;
    ++next_seqno_;
    return res.ready;
}

Cycle
NvmJournal::readPayload(unsigned slot, std::uint8_t *out,
                        Cycle now) const
{
    wlc_assert(slot < params_.region_lines, "journal slot %u oob",
               slot);
    const auto res = nvm_.read(slotAddr(slot) + kHeaderBytes,
                               line_bytes_, now, out);
    return res.ready;
}

void
NvmJournal::peekPayload(unsigned slot, std::uint8_t *out) const
{
    wlc_assert(slot < params_.region_lines, "journal slot %u oob",
               slot);
    nvm_.peek(slotAddr(slot) + kHeaderBytes, line_bytes_, out);
}

std::vector<NvmLogRecord>
NvmJournal::scan() const
{
    std::vector<NvmLogRecord> out;
    std::uint8_t hdr[kHeaderBytes];
    for (unsigned slot = 0; slot < params_.region_lines; ++slot) {
        nvm_.peek(slotAddr(slot), kHeaderBytes, hdr);
        const std::uint64_t seqno = getU64(hdr + 0);
        const Addr line = getU64(hdr + 8);
        const std::uint32_t len = getU32(hdr + 16);
        const std::uint32_t csum = getU32(hdr + 20);
        if (seqno == 0 || len != line_bytes_)
            continue;  // Unwritten slot or foreign geometry.
        if (line % line_bytes_ != 0 ||
            line + line_bytes_ > region_start_)
            continue;  // Not a valid home line address.
        if (csum != fnv1a32(hdr, 20))
            continue;  // Torn or corrupt record: skip it cleanly.
        out.push_back(NvmLogRecord{ seqno, line, slot });
    }
    return out;
}

void
NvmJournal::onPowerLoss()
{
    mapping_.clear();
    std::fill(slot_line_.begin(), slot_line_.end(), kNoLine);
    cursor_ = 0;
}

Cycle
NvmJournal::bootReplay(Cycle now)
{
    // Timed pass: read every slot header through the device model —
    // honest recovery latency charged before execution resumes.
    // Payloads stay where they are; the rebuilt mapping serves them
    // on demand. Sequential same-bank headers ride the row buffer.
    Cycle t = now;
    std::uint8_t hdr[kHeaderBytes];
    for (unsigned slot = 0; slot < params_.region_lines; ++slot) {
        const auto res = nvm_.read(slotAddr(slot), kHeaderBytes, t,
                                   hdr);
        t = res.ready;
    }
    stats_.replay_bytes +=
        static_cast<std::uint64_t>(params_.region_lines) *
        kHeaderBytes;

    // Functional rebuild from the same bytes: newest record per line
    // wins; the cursor resumes after the globally newest record.
    mapping_.clear();
    std::fill(slot_line_.begin(), slot_line_.end(), kNoLine);
    std::unordered_map<Addr, std::uint64_t> best;
    std::uint64_t max_seqno = 0;
    unsigned max_slot = 0;
    const std::vector<NvmLogRecord> records = scan();
    for (const NvmLogRecord &r : records) {
        const auto it = best.find(r.line_addr);
        if (it == best.end() || r.seqno > it->second) {
            best[r.line_addr] = r.seqno;
            mapLine(r.line_addr, r.slot);
        }
        if (r.seqno > max_seqno) {
            max_seqno = r.seqno;
            max_slot = r.slot;
        }
    }
    cursor_ = max_seqno == 0
        ? 0 : (max_slot + 1) % params_.region_lines;
    next_seqno_ = std::max(next_seqno_, max_seqno + 1);
    ++stats_.replays;
    stats_.replay_records += records.size();
    WLC_TIMELINE(tl_, LogReplay, now, "nvm_log", records.size(),
                 mapping_.size());
    return t;
}

Cycle
NvmJournal::compactAll(Cycle now)
{
    Cycle t = now;
    // Cyclic order from the oldest-ahead slot keeps the migration
    // sequence identical whether the live set was built by execution
    // or by a replay scan.
    for (int slot = firstLiveSlotAhead(); slot >= 0;
         slot = firstLiveSlotAhead())
        t = compactSegment(segmentOf(static_cast<unsigned>(slot)), t);
    wlc_assert(mapping_.empty(), "journal live after compactAll");
    return t;
}

void
NvmJournal::ioState(StateIo &io)
{
    io.section("NLOG");
    io.u32(cursor_);
    io.u64(next_seqno_);
    io.sorted(mapping_, [&io](Addr &line, unsigned &slot) {
        io.u64(line);
        io.u32(slot);
    });
    if (io.loading()) {
        std::fill(slot_line_.begin(), slot_line_.end(), kNoLine);
        for (const auto &[line, slot] : mapping_)
            slot_line_[slot] = line;
    }
    io.u64(stats_.appends);
    io.u64(stats_.append_bytes);
    io.u64(stats_.replays);
    io.u64(stats_.replay_records);
    io.u64(stats_.replay_bytes);
    io.u64(stats_.compactions);
    io.u64(stats_.compacted_lines);
    io.u64(stats_.compacted_bytes);
}

} // namespace mem
} // namespace wlcache
