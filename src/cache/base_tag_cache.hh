/**
 * @file
 * Shared machinery for tag-array-backed data caches: miss handling,
 * line fill, victim eviction, and energy charging. Concrete designs
 * (write-through, NV write-back, NVSRAM, ReplayCache, WL-Cache)
 * specialize the policy hooks.
 */

#ifndef WLCACHE_CACHE_BASE_TAG_CACHE_HH
#define WLCACHE_CACHE_BASE_TAG_CACHE_HH

#include "cache/cache_iface.hh"
#include "cache/tag_array.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"

namespace wlcache {
namespace cache {

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
    /** Charge cache-array read energy for a word-sized access. */
    void chargeArrayRead();
    /** Charge cache-array write energy for a word-sized access. */
    void chargeArrayWrite();
    /** Charge the LRU bookkeeping cost when the policy is LRU. */
    void chargeReplUpdate();
    /** Charge a full-line array fill. */
    void chargeLineFill();
    /** Charge a full-line array read (write-back sourcing). */
    void chargeLineRead();

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
        return nvm_.writeLine(line_addr, data, bytes, now).ready;
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

    /** Copy @p bytes of @p value into the line at @p addr. */
    void writeLineData(LineRef ref, Addr addr, unsigned bytes,
                       std::uint64_t value);

    /** Read @p bytes from the line at @p addr (little-endian). */
    std::uint64_t readLineData(LineRef ref, Addr addr,
                               unsigned bytes) const;

    CacheParams params_;
    TagArray tags_;
    mem::NvmMemory &nvm_;
    energy::EnergyMeter *meter_;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_BASE_TAG_CACHE_HH
