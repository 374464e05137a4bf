/**
 * @file
 * Model of ReplayCache (Zeng et al., MICRO 2021) as used by the
 * paper's comparison: a volatile SRAM cache whose stores are
 * persisted to NVM asynchronously at word granularity, with
 * region-level persistence guarantees. A store does not wait for its
 * NVM write (ILP across the region); at a region boundary the persist
 * queue drains before the region commits. On power failure only the
 * registers are checkpointed; execution resumes from the last
 * committed region boundary and re-executes the interrupted region
 * (the compiler guarantees regions are re-executable).
 *
 * We model regions as fixed-length windows of trace events: the cache
 * reports the window length, and the NVP system calls the boundary,
 * keeps the recovery point and performs the rollback.
 */

#ifndef WLCACHE_CACHE_REPLAY_CACHE_HH
#define WLCACHE_CACHE_REPLAY_CACHE_HH

#include "cache/base_tag_cache.hh"

namespace wlcache {
namespace cache {

/** ReplayCache model parameters. */
struct ReplayParams
{
    /** Max outstanding asynchronous word persists. */
    unsigned persist_queue_depth = 8;
    /** Trace events per compiler-formed region. */
    unsigned region_events = 16;
    /** NVM address of the persistent region-commit marker. */
    Addr commit_marker_addr = 0x80;
};

/**
 * Volatile cache with asynchronous region-level store persistence.
 * Lines are never dirty: the persist queue is the source of
 * persistence, so evictions are silent.
 */
class ReplayCacheModel : public BaseTagCache
{
  public:
    ReplayCacheModel(const CacheParams &params, const ReplayParams &rp,
                     mem::NvmMemory &nvm, energy::EnergyMeter *meter);

    CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value, std::uint64_t *load_out,
                             Cycle now) override;

    /** Retire the persists that completed by @p now. */
    void tick(Cycle now) { inflight_.popCompleted(now); }

    unsigned regionEvents() const override { return replay_.region_events; }

    /**
     * Region commit: wait until the region before last drained, then
     * write the commit record behind this region's persists.
     */
    Cycle regionBoundary(Cycle now) override;

    /** Registers only; in-flight persists are simply lost. */
    Cycle checkpoint(Cycle now) override { return now; }

    void powerLoss() override;
    Cycle drainAndFlush(Cycle now) override;
    double checkpointEnergyBound() const override { return 0.0; }
    const char *designName() const override { return "ReplayCache"; }

    /** Outstanding persists (testing). */
    std::size_t persistQueueDepth() const { return inflight_.size(); }

    /** Persists coalesced into an in-flight word (testing). */
    std::uint64_t coalescedPersists() const { return coalesced_; }

    void ioState(StateIo &io) override;

  private:
    ReplayParams replay_;
    /** Outstanding word persists, oldest first. */
    PersistQueue inflight_;
    std::uint64_t coalesced_ = 0;
    std::uint32_t region_counter_ = 0;
    Cycle pending_drain_ = 0;  //!< Drain deadline of the previous region.
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_REPLAY_CACHE_HH
