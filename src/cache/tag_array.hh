/**
 * @file
 * Set-associative tag/data array shared by every cache design. Holds
 * functional line data (so crash-consistency checks can inspect real
 * bytes), valid/dirty state, and LRU or FIFO victim selection. An
 * array whose bytes nothing reads (the I-cache's) is built tag-only.
 */

#ifndef WLCACHE_CACHE_TAG_ARRAY_HH
#define WLCACHE_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache_params.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace cache {

/** Index of a line inside a TagArray. */
struct LineRef
{
    std::uint32_t set;
    std::uint32_t way;

    bool operator==(const LineRef &o) const
    {
        return set == o.set && way == o.way;
    }
};

/**
 * The tag+data store. Replacement bookkeeping is sequence-number
 * based: LRU tracks the last-touch sequence, FIFO the install
 * sequence; the victim is the valid line with the smallest relevant
 * sequence number (invalid ways win immediately).
 *
 * Metadata is laid out structure-of-arrays: one parallel vector per
 * field, indexed by set * assoc + way. A lookup touches only the
 * valid bytes and the addresses of one set (at most `assoc` entries
 * of each, contiguous, typically one cache line apiece), and a victim
 * scan reads only the sequence vector the policy cares about, instead
 * of striding over 26-byte Line records and dragging the unused
 * fields through the host cache.
 */
class TagArray
{
  public:
    /**
     * @param line_data false for a tag-only array: no line bytes are
     * kept, install() takes a null image and data() must not be
     * called.
     */
    explicit TagArray(const CacheParams &params, bool line_data = true);

    // --- Geometry ---------------------------------------------------------
    unsigned numSets() const { return num_sets_; }
    unsigned assoc() const { return assoc_; }
    unsigned numLines() const { return num_sets_ * assoc_; }
    unsigned lineBytes() const { return line_bytes_; }

    /** Align @p addr down to its line base address. */
    Addr lineAddrOf(Addr addr) const { return addr & ~line_mask_; }

    /** Byte offset of @p addr inside its line. */
    unsigned lineOffset(Addr addr) const
    {
        return static_cast<unsigned>(addr & line_mask_);
    }

    // --- Lookup / replacement ----------------------------------------------

    /**
     * lookup()'s MRU-way check alone: true, with @p ref, only when the
     * set's last-touched way is valid and holds @p addr's line; false
     * says nothing. No replacement-state update.
     */
    bool hintHit(Addr addr, LineRef &ref) const
    {
        const std::uint32_t set = setIndex(addr);
        const std::uint32_t hint = mru_way_[set];
        const std::size_t i = static_cast<std::size_t>(set) * assoc_ + hint;
        if (hint < assoc_ && valid_[i] && addrs_[i] == lineAddrOf(addr)) {
            ref = { set, hint };
            return true;
        }
        return false;
    }

    /** Find the line holding @p addr; no replacement-state update. */
    std::optional<LineRef> lookup(Addr addr) const
    {
        // MRU-way hint first: fetch loops and data accesses re-touch
        // the same line, so it hits far more often than the scan.
        LineRef ref;
        if (hintHit(addr, ref))
            return ref;
        const Addr laddr = lineAddrOf(addr);
        const std::uint32_t set = setIndex(addr);
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (valid_[base + way] && addrs_[base + way] == laddr)
                return LineRef{ set, way };
        }
        return std::nullopt;
    }

    /**
     * lookup() and, on a miss, victim() in one scan of the set: true
     * with @p ref = *lookup(addr) when the line is resident, else
     * false with @p ref = victim(addr). No replacement-state update.
     */
    bool probe(Addr addr, LineRef &ref) const
    {
        return hintHit(addr, ref) ||
            probeSet(lineAddrOf(addr), setIndex(addr), ref);
    }

    /** Record an access for LRU bookkeeping. */
    void touch(LineRef ref)
    {
        touch_seq_[index(ref)] = ++seq_;
        mru_way_[ref.set] = ref.way;
    }

    /**
     * Leave the replacement state exactly as @p rounds passes of
     * touch(refs[0]) ... touch(refs[n - 1]) would, in O(n).
     */
    void touchRepeated(const LineRef *refs, unsigned n,
                       std::uint64_t rounds);

    /**
     * Choose a victim way in the set of @p addr. Prefers an invalid
     * way; otherwise applies the configured replacement policy.
     */
    LineRef victim(Addr addr) const;

    /**
     * Install a line image (null: zeros; must be null when tag-only);
     * the line becomes valid and clean.
     */
    void install(LineRef ref, Addr line_addr, const std::uint8_t *image);

    // --- Line state ---------------------------------------------------------
    bool valid(LineRef ref) const { return valid_[index(ref)] != 0; }
    bool dirty(LineRef ref) const { return dirty_[index(ref)] != 0; }
    Addr lineAddr(LineRef ref) const { return addrs_[index(ref)]; }

    /** Set/clear the dirty bit, maintaining the dirty-line counter. */
    void setDirty(LineRef ref, bool dirty);

    /** Invalidate a line (clears dirty too). */
    void invalidate(LineRef ref);

    /** Invalidate every line (volatile array losing power). */
    void invalidateAll();

    /** Mutable access to the line's data bytes. */
    std::uint8_t *data(LineRef ref)
    {
        return bytes_.data() + index(ref) * line_bytes_;
    }
    const std::uint8_t *data(LineRef ref) const
    {
        return bytes_.data() + index(ref) * line_bytes_;
    }

    /** Number of currently dirty lines (O(1)). */
    unsigned dirtyCount() const { return dirty_count_; }

    /** Peak dirtyCount() since the last resetDirtyHighWater(). */
    unsigned dirtyHighWater() const { return dirty_high_water_; }

    /** Restart high-water tracking (e.g.\ at each power-on boot). */
    void resetDirtyHighWater() { dirty_high_water_ = dirty_count_; }

    // --- Functional helpers -------------------------------------------------

    /** Invoke @p fn for every valid line. */
    void forEachValidLine(
        const std::function<void(LineRef, Addr, bool dirty)> &fn) const;

    /**
     * Serialize tags, data bytes, replacement sequences, and dirty
     * accounting. Geometry is not stored: restore requires an array
     * built from the same CacheParams.
     */
    void ioState(StateIo &io);

  private:
    /**
     * probe() past the MRU hint: one scan of @p set. Out of line so
     * the hint hit stays small where probe() is inlined.
     */
    bool probeSet(Addr laddr, std::uint32_t set, LineRef &ref) const;

    /** Flat metadata index of a line: set * assoc + way. */
    std::size_t index(LineRef ref) const
    {
        wlc_assert(ref.set < num_sets_ && ref.way < assoc_);
        return static_cast<std::size_t>(ref.set) * assoc_ + ref.way;
    }

    std::uint32_t setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr >> line_shift_) & set_mask_);
    }

    unsigned num_sets_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned line_shift_;  //!< log2(line_bytes_).
    Addr line_mask_;
    std::uint32_t set_mask_;
    ReplPolicy repl_;

    // Per-line metadata, structure-of-arrays (all sized numLines(),
    // indexed by index()). valid_/dirty_ use uint8_t rather than
    // vector<bool> so a set's flags are plain contiguous bytes.
    std::vector<Addr> addrs_;                  //!< Line base address.
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> touch_seq_;     //!< LRU recency stamp.
    std::vector<std::uint64_t> install_seq_;   //!< FIFO install stamp.

    /**
     * Per-set most-recently-used way, a pure lookup accelerator:
     * lookup() probes it before scanning the set. Always validated
     * against the tag before use, so it can never change what
     * lookup() returns — stale hints (after invalidate/restore) just
     * fall back to the scan. Deliberately not serialized.
     */
    mutable std::vector<std::uint32_t> mru_way_;

    std::vector<std::uint8_t> bytes_;  //!< Empty when tag-only.
    std::uint64_t seq_ = 0;
    unsigned dirty_count_ = 0;
    unsigned dirty_high_water_ = 0;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_TAG_ARRAY_HH
