/**
 * @file
 * Fully non-volatile write-back cache (paper Figure 1(c),
 * "NVCache-WB"). The array itself is ReRAM-class: contents survive
 * power failure, so no JIT checkpoint energy is needed for the cache,
 * but every access pays NV latency and energy, and leakage/runtime
 * power is the highest of all designs — which is why the paper finds
 * it the slowest cached configuration.
 */

#ifndef WLCACHE_CACHE_NV_CACHE_HH
#define WLCACHE_CACHE_NV_CACHE_HH

#include "cache/base_tag_cache.hh"

namespace wlcache {
namespace cache {

/** Write-back, write-allocate, non-volatile data cache. */
class NVCacheWB : public BaseTagCache
{
  public:
    NVCacheWB(const CacheParams &params, mem::NvmMemory &nvm,
              energy::EnergyMeter *meter);

    CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value, std::uint64_t *load_out,
                             Cycle now) override;

    /** Nothing to do: the array is persistent. */
    Cycle checkpoint(Cycle now) override { return now; }

    /** Contents survive an outage. */
    void powerLoss() override {}

    Cycle drainAndFlush(Cycle now) override { return flushDirty(now); }

    double checkpointEnergyBound() const override { return 0.0; }

    /** Dirty NV lines shadow their NVM home locations. */
    void collectPersistentOverlay(mem::ByteImage &overlay) const override;

    const char *designName() const override { return "NVCache-WB"; }
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_NV_CACHE_HH
