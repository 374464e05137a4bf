/**
 * @file
 * The paper's §3.3 *alternative* design: a write-through cache with a
 * large CAM-searched write-back buffer, which "can also behave like
 * WL-Cache" but loses on three counts the paper enumerates — CAM
 * hardware cost, the energy reserved to drain the buffer
 * failure-atomically, and a lengthened memory critical path (the
 * buffer must be consulted before NVM on every access). Implemented
 * so those claims can be measured rather than asserted (see
 * bench_ablations and the hwcost comparison).
 */

#ifndef WLCACHE_CACHE_WT_BUFFERED_CACHE_HH
#define WLCACHE_CACHE_WT_BUFFERED_CACHE_HH

#include "cache/base_tag_cache.hh"

namespace wlcache {
namespace cache {

/** Write-back-buffer parameters for the §3.3 alternative. */
struct WtBufferParams
{
    /** Buffer entries (word granular). */
    unsigned entries = 16;
    /** CAM search cost on *every* access (the critical-path tax). */
    Cycle cam_search_latency = 1;
    double cam_search_energy = 95.0e-12;
    /** Leakage of the CAM buffer (see hwcost model). */
    double buffer_leakage_watts = 1.3e-3;
};

/** Write-through cache + coalescing write-back buffer (§3.3). */
class WtBufferedCache : public BaseTagCache
{
  public:
    WtBufferedCache(const CacheParams &params, const WtBufferParams &wb,
                    mem::NvmMemory &nvm, energy::EnergyMeter *meter);

    CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value, std::uint64_t *load_out,
                             Cycle now) override;

    Cycle checkpoint(Cycle now) override;
    void powerLoss() override;
    Cycle drainAndFlush(Cycle now) override;
    double checkpointEnergyBound() const override;
    double leakageWatts() const override;
    const char *designName() const override { return "WT+Buffer"; }

    std::size_t bufferDepth() const { return buffer_.size(); }
    std::uint64_t coalescedWrites() const { return coalesced_; }

    void ioState(StateIo &io) override;

  private:
    void chargeCamSearch();

    WtBufferParams wb_;
    PersistQueue buffer_;
    std::uint64_t coalesced_ = 0;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_WT_BUFFERED_CACHE_HH
