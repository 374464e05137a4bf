#include "cache/replay_cache.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace cache {

ReplayCacheModel::ReplayCacheModel(const CacheParams &params,
                                   const ReplayParams &rp,
                                   mem::NvmMemory &nvm,
                                   energy::EnergyMeter *meter)
    : BaseTagCache("replay_cache", params, nvm, meter), replay_(rp)
{
    wlc_assert(replay_.persist_queue_depth > 0);
    wlc_assert(replay_.region_events > 0);
}

CacheAccessResult
ReplayCacheModel::access(MemOp op, Addr addr, unsigned bytes,
                         std::uint64_t value, std::uint64_t *load_out,
                         Cycle now)
{
    tick(now);
    if (op == MemOp::Load)
        return load(addr, bytes, load_out, now);

    // Store: update the cache (write-allocate so later loads hit) and
    // enqueue an asynchronous word persist to NVM.
    const StoreAlloc s = storeAllocate(addr, bytes, value, now);

    // Write combining: a store whose word is already waiting in the
    // persist queue merges into that entry instead of issuing a new
    // NVM write (the queue is a coalescing store buffer).
    const Addr word = addr & ~static_cast<Addr>(7);
    if (inflight_.find(word)) {
        nvm_.poke(addr, bytes, &value);
        ++coalesced_;
        return { s.ready + params_.write_hit_latency, s.hit };
    }

    // Back-pressure: if the persist queue is full, the store stalls
    // until the oldest persist drains.
    const Cycle t = inflight_.waitForSlot(replay_.persist_queue_depth,
                                          s.ready, stats_.stall_cycles);

    // Issue the asynchronous persist; the core does not wait for it.
    inflight_.push(word, nvm_.write(addr, bytes, &value, t).ready);
    return { t + params_.write_hit_latency, s.hit };
}

Cycle
ReplayCacheModel::regionBoundary(Cycle now)
{
    // Two-phase region commit: region N's persists may drain while
    // region N+1 executes; the boundary only waits if the region
    // *before last* has still not fully drained (one region of
    // latency-hiding slack, as ReplayCache's region pipelining
    // provides).
    Cycle t = now;
    if (pending_drain_ > t) {
        stats_.stall_cycles += pending_drain_ - t;
        t = pending_drain_;
    }
    pending_drain_ = inflight_.empty() ? t : inflight_.back().ready;
    // The commit record (double-buffered region id) is written
    // asynchronously; it lands behind the region's last persist.
    ++region_counter_;
    const Addr slot = replay_.commit_marker_addr +
        4 * (region_counter_ & 1);
    nvm_.write(slot, 4, &region_counter_, pending_drain_);
    return t;
}

void
ReplayCacheModel::powerLoss()
{
    tags_.invalidateAll();
    // Whatever was in flight functionally reached NVM already (same
    // values the replayed region will rewrite); the queue state is
    // volatile and disappears.
    inflight_.clear();
    pending_drain_ = 0;
}

Cycle
ReplayCacheModel::drainAndFlush(Cycle now)
{
    // All stores were persisted through the queue; just drain it.
    return regionBoundary(now);
}

void
ReplayCacheModel::ioState(StateIo &io)
{
    BaseTagCache::ioState(io);
    io.section("RPLY");
    inflight_.ioState(io);
    io.u64(coalesced_);
    io.u32(region_counter_);
    io.u64(pending_drain_);
}

} // namespace cache
} // namespace wlcache
