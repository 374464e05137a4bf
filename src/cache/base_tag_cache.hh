/**
 * @file
 * Shared machinery for tag-array-backed data caches: the load path,
 * the write-allocate and no-write-allocate store updates, line fill,
 * victim eviction, dirty flush and energy charging, plus the queue of
 * asynchronous persists. Concrete designs (write-through, NV
 * write-back, NVSRAM, ReplayCache, WT+Buffer, WL-Cache) keep only
 * their store and persistence policy.
 */

#ifndef WLCACHE_CACHE_BASE_TAG_CACHE_HH
#define WLCACHE_CACHE_BASE_TAG_CACHE_HH

#include <cstring>
#include <deque>

#include "cache/cache_iface.hh"
#include "cache/tag_array.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"

namespace wlcache {
namespace cache {

/**
 * Outstanding asynchronous NVM writes, oldest first: ReplayCache's
 * word persists, WT+Buffer's write-back buffer and NVSRAM-practical's
 * background NV-way write-backs. Callers keep their own coalescing
 * rule on top of find().
 */
class PersistQueue
{
  public:
    struct Entry
    {
        Addr addr;
        Cycle ready;  //!< Cycle the write completes.
    };

    /** Drop the entries whose write completed by @p now. */
    void popCompleted(Cycle now)
    {
        while (!q_.empty() && q_.front().ready <= now)
            q_.pop_front();
    }

    /** First queued entry for @p addr, or null. */
    const Entry *find(Addr addr) const;

    /**
     * Back-pressure: when @p capacity entries are queued, wait for
     * the oldest to complete, adding the wait to @p stall_cycles,
     * then pop what has completed. @return the cycle to issue at.
     */
    Cycle waitForSlot(std::size_t capacity, Cycle now,
                      stats::Scalar &stall_cycles);

    void push(Addr addr, Cycle ready) { q_.push_back({ addr, ready }); }
    void clear() { q_.clear(); }
    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }
    const Entry &back() const { return q_.back(); }

    /** A length-prefixed sequence of (u64 addr, u64 ready). */
    void ioState(StateIo &io);

  private:
    std::deque<Entry> q_;
};

/** Base class for designs built around a TagArray. */
class BaseTagCache : public DataCache
{
  public:
    BaseTagCache(const std::string &name, const CacheParams &params,
                 mem::NvmMemory &nvm, energy::EnergyMeter *meter);

    const CacheParams &params() const { return params_; }
    const TagArray &tags() const { return tags_; }

    double leakageWatts() const override
    {
        return params_.leakage_watts;
    }

    unsigned dirtyHighWater() const override
    {
        return tags_.dirtyHighWater();
    }

    void resetDirtyHighWater() override
    {
        tags_.resetDirtyHighWater();
    }

    void ioState(StateIo &io) override;

  protected:
    /**
     * The load path every design shares (§3.3: persistence machinery
     * stays off it). A hit reads the line at @p issue + hit latency; a
     * miss fills it first. A hit in the set's MRU way is served here,
     * inline; everything else takes loadSlow().
     */
    CacheAccessResult load(Addr addr, unsigned bytes,
                           std::uint64_t *load_out, Cycle issue)
    {
        LineRef ref;
        if (!tags_.hintHit(addr, ref))
            return loadSlow(addr, bytes, load_out, issue);
        ++stats_.loads;
        ++stats_.load_hits;
        tags_.touch(ref);
        chargeArrayRead();
        chargeReplUpdate();
        if (load_out)
            *load_out = readLineData(ref, addr, bytes);
        return { issue + params_.hit_latency, true };
    }

    /** Where a write-allocate store landed. */
    struct StoreAlloc
    {
        LineRef line;
        Cycle ready;  //!< Cycle the data is in the line.
        bool hit;
    };

    /**
     * Write-allocate store: count it, fill the line on a miss, write
     * the data and charge the array write. No persistence. Like
     * load(), an MRU-way hit is served inline.
     */
    StoreAlloc storeAllocate(Addr addr, unsigned bytes,
                             std::uint64_t value, Cycle now)
    {
        LineRef ref;
        if (!tags_.hintHit(addr, ref))
            return storeAllocateSlow(addr, bytes, value, now);
        ++stats_.stores;
        ++stats_.store_hits;
        tags_.touch(ref);
        writeLineData(ref, addr, bytes, value);
        chargeArrayWrite();
        chargeReplUpdate();
        return { ref, now, true };
    }

    /** Write-back store: storeAllocate() and mark the line dirty. */
    CacheAccessResult storeWriteBack(Addr addr, unsigned bytes,
                                     std::uint64_t value, Cycle now)
    {
        const StoreAlloc s = storeAllocate(addr, bytes, value, now);
        if (!tags_.dirty(s.line))
            tags_.setDirty(s.line, true);
        return { s.ready + params_.write_hit_latency, s.hit };
    }

    /**
     * No-write-allocate store: count it and update the cached copy on
     * a tag hit; the line stays clean. @return whether the tag hit.
     */
    bool storeNoAllocate(Addr addr, unsigned bytes, std::uint64_t value);

    /** Write back every dirty line and clear it. @return ack cycle. */
    Cycle flushDirty(Cycle now);

    using Energy = energy::EnergyCategory;

    /** Charge cache-array read energy for a word-sized access. */
    void chargeArrayRead() { charge(Energy::CacheRead, read_aj_); }
    /** Charge cache-array write energy for a word-sized access. */
    void chargeArrayWrite() { charge(Energy::CacheWrite, write_aj_); }
    /** Charge the LRU bookkeeping cost when the policy is LRU. */
    void chargeReplUpdate() { charge(Energy::CacheWrite, repl_aj_); }
    /** Charge a full-line array fill. */
    void chargeLineFill() { charge(Energy::CacheWrite, fill_aj_); }
    /** Charge a full-line array read (write-back sourcing). */
    void chargeLineRead() { charge(Energy::CacheRead, line_read_aj_); }

    /**
     * Miss path: pick a victim in @p addr's set, write it back to NVM
     * if dirty (synchronously), fill the line from NVM, install.
     * @return (installed line, cycle when the fill data arrived).
     */
    std::pair<LineRef, Cycle> fillLine(Addr addr, Cycle now);

    /**
     * Hook invoked when a dirty victim is evicted, *before* the
     * write-back completes. Default does nothing extra.
     */
    virtual void onDirtyEviction(Addr line_addr) { (void)line_addr; }

    /** Write a full line image to NVM; returns ack cycle. */
    Cycle writeBackLine(LineRef ref, Cycle now);

    /**
     * Persist one line image. The default writes @p line_addr in
     * place; log-structured designs redirect it into a journal
     * append. Every dirty-line persist (write-back, async clean,
     * checkpoint flush) funnels through here. @return ack cycle.
     */
    virtual Cycle persistLine(Addr line_addr, const std::uint8_t *data,
                              unsigned bytes, Cycle now)
    {
        return nvm_.write(line_addr, bytes, data, now).ready;
    }

    /**
     * Fetch the newest persisted image of @p line_addr. The default
     * reads the home address; log-structured designs serve mapped
     * lines from the journal instead. @return data-ready cycle.
     */
    virtual Cycle readLineImage(Addr line_addr, std::uint8_t *out,
                                unsigned bytes, Cycle now)
    {
        return nvm_.read(line_addr, bytes, now, out).ready;
    }

    /**
     * Copy @p bytes of @p value into the line at @p addr (host
     * little-endian). 1, 2, 4 and 8 bytes are single fixed-width
     * moves from a register.
     */
    void writeLineData(LineRef ref, Addr addr, unsigned bytes,
                       std::uint64_t value)
    {
        const unsigned off = tags_.lineOffset(addr);
        wlc_assert(off + bytes <= tags_.lineBytes(),
                   "store crosses a cache line boundary");
        std::uint8_t *p = tags_.data(ref) + off;
        switch (bytes) {
          case 1: storeAs<std::uint8_t>(p, value); break;
          case 2: storeAs<std::uint16_t>(p, value); break;
          case 4: storeAs<std::uint32_t>(p, value); break;
          case 8: storeAs<std::uint64_t>(p, value); break;
          default: std::memcpy(p, &value, bytes); break;
        }
    }

    /**
     * Read @p bytes from the line at @p addr (little-endian). 1, 2, 4
     * and 8 bytes load straight into a register, with no round trip
     * through memory.
     */
    std::uint64_t readLineData(LineRef ref, Addr addr,
                               unsigned bytes) const
    {
        const unsigned off = tags_.lineOffset(addr);
        wlc_assert(off + bytes <= tags_.lineBytes(),
                   "load crosses a cache line boundary");
        const std::uint8_t *p = tags_.data(ref) + off;
        switch (bytes) {
          case 1: return loadAs<std::uint8_t>(p);
          case 2: return loadAs<std::uint16_t>(p);
          case 4: return loadAs<std::uint32_t>(p);
          case 8: return loadAs<std::uint64_t>(p);
        }
        std::uint64_t v = 0;
        std::memcpy(&v, p, bytes);
        return v;
    }

    CacheParams params_;
    TagArray tags_;
    mem::NvmMemory &nvm_;
    energy::EnergyMeter *meter_;

  private:
    /**
     * load() and storeAllocate() past the MRU-way hit: a full lookup,
     * and a fill on a miss. Out of line so the hinted hit stays small
     * where it is inlined.
     */
    CacheAccessResult loadSlow(Addr addr, unsigned bytes,
                               std::uint64_t *load_out, Cycle issue);
    StoreAlloc storeAllocateSlow(Addr addr, unsigned bytes,
                                 std::uint64_t value, Cycle now);

    /** Meter @p aj in @p cat (no meter: nothing). */
    void charge(Energy cat, energy::Attojoules aj)
    {
        if (meter_)
            meter_->addAj(cat, aj);
    }

    /** A @p T-wide little-endian load, zero-extended, via a register. */
    template <typename T>
    static std::uint64_t loadAs(const std::uint8_t *p)
    {
        T v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    /** The low sizeof(@p T) bytes of @p value, stored at @p p. */
    template <typename T>
    static void storeAs(std::uint8_t *p, std::uint64_t value)
    {
        const T v = static_cast<T>(value);
        std::memcpy(p, &v, sizeof v);
    }

    // params_' charge amounts, quantized once; repl_aj_ is 0 under FIFO.
    energy::Attojoules read_aj_;
    energy::Attojoules write_aj_;
    energy::Attojoules repl_aj_;
    energy::Attojoules fill_aj_;
    energy::Attojoules line_read_aj_;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_BASE_TAG_CACHE_HH
