#include "core/wl_cache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace core {

WLCache::WLCache(const cache::CacheParams &params, const WlParams &wl,
                 mem::NvmMemory &nvm, energy::EnergyMeter *meter,
                 const AdaptiveConfig &adaptive)
    : WLCache("wl_cache", params, wl, nvm, meter, adaptive)
{
}

WLCache::WLCache(const std::string &name,
                 const cache::CacheParams &params, const WlParams &wl,
                 mem::NvmMemory &nvm, energy::EnergyMeter *meter,
                 const AdaptiveConfig &adaptive)
    : BaseTagCache(name, params, nvm, meter), wl_(wl),
      initial_maxline_(wl.maxline), dq_(wl.dq_size, wl.dq_repl),
      wl_stats_(stat_group_), runtime_(adaptive, wl.maxline)
{
    wlc_assert(wl_.maxline >= 1 && wl_.maxline <= wl_.dq_size,
               "maxline must be in [1, |DirtyQueue|]");
}

void
WLCache::chargeDqAccess()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    wl_.dq_access_energy);
}

void
WLCache::tick(Cycle now)
{
    // Step 4 of the replacement protocol: remove entries whose
    // write-back ACK has arrived.
    dq_.completeInFlight(now);
}

bool
WLCache::cleanOne(Cycle now)
{
    const auto slot = dq_.selectVictim();
    if (!slot)
        return false;
    chargeDqAccess();
    const Addr laddr = dq_.entry(*slot).line_addr;
    const auto ref = tags_.lookup(laddr);
    if (!ref || !tags_.dirty(*ref)) {
        // Stale entry (§5.4): the line was evicted or already cleaned.
        WLC_TIMELINE(tl_, DqStale, now, "wl_cache", laddr,
                     tags_.dirtyCount());
        dq_.remove(*slot);
        ++wl_stats_.stale_drops;
        return true;
    }
    // Step 1: mark the line clean *before* launching the write-back,
    // so a racing store to the same line re-inserts into the queue.
    tags_.setDirty(*ref, false);
    // Step 2: asynchronous write-back; the line stays in the cache.
    chargeLineRead();
    const Cycle ready = persistLine(laddr, tags_.data(*ref),
                                    tags_.lineBytes(), now);
    ++stats_.writebacks;
    ++wl_stats_.cleanings;
    WLC_TIMELINE(tl_, DqClean, now, "wl_cache", laddr,
                 tags_.dirtyCount());
    // Steps 3-4 complete via tick()/completeInFlight at the ACK.
    dq_.markInFlight(*slot, ready);
    return true;
}

Cycle
WLCache::cleanAboveWaterline(Cycle now)
{
    while (tags_.dirtyCount() > waterline()) {
        // Dynamic adaptation (§4): rather than write a line back due
        // to the waterline constraint, raise maxline when the
        // capacitor can afford to JIT-checkpoint one more line.
        if (try_reserve_ && wl_.maxline < wl_.dq_size &&
            try_reserve_(wl_.maxline + 1, lineCheckpointEnergy())) {
            ++wl_.maxline;
            ++wl_stats_.dyn_maxline_raises;
            continue;
        }
        if (!cleanOne(now))
            break;
    }
    return now;
}

Cycle
WLCache::ensureDirtyCapacity(Cycle now)
{
    Cycle t = now;
    bool stalled = false;
    for (;;) {
        tick(t);
        const bool at_maxline = tags_.dirtyCount() >= wl_.maxline;
        if (!at_maxline && !dq_.full())
            break;

        // Opportunistic dynamic adaptation (§4): if the capacitor can
        // afford checkpointing one more line, raise maxline instead
        // of stalling.
        if (at_maxline && !dq_.full() && wl_.maxline < wl_.dq_size &&
            try_reserve_ &&
            try_reserve_(wl_.maxline + 1, lineCheckpointEnergy())) {
            ++wl_.maxline;
            ++wl_stats_.dyn_maxline_raises;
            continue;
        }

        if (const auto ready = dq_.earliestInFlightReady()) {
            if (*ready > t) {
                if (!stalled) {
                    stalled = true;
                    ++wl_stats_.store_stalls;
                }
                stats_.stall_cycles += *ready - t;
                t = *ready;
            }
            continue;
        }
        // No write-back outstanding: launch one and wait for it.
        if (!cleanOne(t)) {
            panic("DirtyQueue wedged: %u dirty lines, %u slots used, "
                  "nothing pending",
                  tags_.dirtyCount(), dq_.size());
        }
    }
    return t;
}

cache::CacheAccessResult
WLCache::access(MemOp op, Addr addr, unsigned bytes, std::uint64_t value,
                std::uint64_t *load_out, Cycle now)
{
    tick(now);
    if (op == MemOp::Load) {
        // The decoupled DirtyQueue is off the load path (§3.3): hits
        // and misses behave exactly like a conventional SRAM cache.
        const auto r = load(addr, bytes, load_out, now);
        if (probe_)
            probe_(r.ready);
        return r;
    }

    auto ref = tags_.lookup(addr);
    ++stats_.stores;
    Cycle t = now;
    bool hit = false;
    if (ref) {
        hit = true;
        ++stats_.store_hits;
    } else {
        // Write-allocate: the fill may evict a dirty victim, leaving
        // its DirtyQueue entry stale (§5.4).
        const auto [line, ready] =
            fillLine(addr, now + params_.miss_lookup_latency);
        ref = line;
        t = ready;
    }

    const Addr laddr = tags_.lineAddrOf(addr);
    const bool was_dirty = tags_.dirty(*ref);
    if (!was_dirty) {
        // Clean -> dirty transition: insertion protocol (§5.1).
        t = ensureDirtyCapacity(t);
        // The fill/stall above cannot have re-dirtied this line.
        for (unsigned i = 0; i < dq_.capacity(); ++i) {
            const auto &e = dq_.entry(i);
            if (e.state != DqEntryState::Free && e.line_addr == laddr) {
                ++wl_stats_.redundant_entries;
                break;
            }
        }
        const auto slot = dq_.insert(laddr);
        wlc_assert(slot.has_value(),
                   "DirtyQueue full after capacity check");
        chargeDqAccess();
        tags_.setDirty(*ref, true);
        WLC_TIMELINE(tl_, DqInsert, t, "wl_cache", laddr,
                     tags_.dirtyCount());
    } else if (wl_.dq_repl == cache::ReplPolicy::LRU) {
        // DQ-LRU needs per-store recency updates, which is exactly
        // the search cost §6.4 blames for LRU losing to FIFO.
        dq_.touch(laddr);
        if (meter_)
            meter_->add(energy::EnergyCategory::CacheWrite,
                        wl_.dq_lru_search_energy);
    }

    tags_.touch(*ref);
    writeLineData(*ref, addr, bytes, value);
    chargeArrayWrite();
    chargeReplUpdate();

    t = cleanAboveWaterline(t);
    if (probe_)
        probe_(t + params_.write_hit_latency);
    return { t + params_.write_hit_latency, hit };
}

Cycle
WLCache::checkpoint(Cycle now)
{
    wl_stats_.dirty_at_ckpt.sample(tags_.dirtyCount());
    Cycle t = now;
    unsigned persisted = 0;
    for (unsigned i = 0; i < dq_.capacity(); ++i) {
        const DqEntry &e = dq_.entry(i);
        if (e.state == DqEntryState::Free)
            continue;
        chargeDqAccess();
        if (e.state == DqEntryState::Pending) {
            const auto ref = tags_.lookup(e.line_addr);
            if (ref && tags_.dirty(*ref)) {
                chargeLineRead();
                t = persistLine(e.line_addr, tags_.data(*ref),
                                tags_.lineBytes(), t);
                tags_.setDirty(*ref, false);
                ++persisted;
            } else {
                ++wl_stats_.stale_drops;
            }
        }
        // InFlight entries were already cleaned (step 1 ran), so the
        // NVM holds their data; re-writing would merely be redundant.
    }
    stats_.checkpoint_lines += persisted;
    WLC_TIMELINE(tl_, Checkpoint, now, "wl_cache", persisted,
                 t - now);
    wlc_assert(persisted <= wl_.maxline,
               "JIT checkpoint exceeded the maxline bound");
    dq_.clear();
    if (probe_)
        probe_(t);
    return t;
}

void
WLCache::powerLoss()
{
    tags_.invalidateAll();
    dq_.clear();
}

Cycle
WLCache::drainAndFlush(Cycle now)
{
    Cycle t = now;
    // Wait out any in-flight cleanings.
    for (unsigned i = 0; i < dq_.capacity(); ++i) {
        const DqEntry &e = dq_.entry(i);
        if (e.state == DqEntryState::InFlight)
            t = std::max(t, e.wb_ready);
    }
    tick(t);
    t = flushDirty(t);
    dq_.clear();
    return t;
}

double
WLCache::lineCheckpointEnergy() const
{
    return nvm_.params().writeEnergy(tags_.lineBytes()) +
        params_.line_read_energy;
}

double
WLCache::checkpointEnergyBound() const
{
    return static_cast<double>(wl_.maxline) * lineCheckpointEnergy() +
        static_cast<double>(wl_.dq_size) * wl_.dq_access_energy;
}

double
WLCache::leakageWatts() const
{
    return params_.leakage_watts + wl_.dq_leakage_watts;
}

void
WLCache::setMaxline(unsigned maxline)
{
    wlc_assert(maxline >= 1 && maxline <= wl_.dq_size,
               "maxline %u out of range [1, %u]", maxline, wl_.dq_size);
    wl_.maxline = maxline;
}

unsigned
WLCache::nvffImage(std::uint8_t *out) const
{
    out[0] = static_cast<std::uint8_t>(maxline());
    out[1] = static_cast<std::uint8_t>(waterline());
    // The watchdog history lives in the runtime; its 2 x 2 bytes share
    // the bank.
    return 2;
}

bool
WLCache::endPowerInterval(double on_seconds, Cycle now)
{
    const unsigned before = maxline();
    const unsigned m = runtime_.onBoot(on_seconds);
    WLC_TIMELINE(tl_, AdaptDecision, now, "runtime", before, m,
                 on_seconds);
    setMaxline(runtime_.config().enabled ? m : initial_maxline_);
    return true;
}

void
WLCache::reportRun(std::uint64_t outages, cache::WlRunStats &wl,
                   mem::NvmJournalStats &) const
{
    wl.reconfigurations = runtime_.reconfigurations();
    wl.maxline_min_seen = runtime_.observedMaxlineMin();
    wl.maxline_max_seen = runtime_.observedMaxlineMax();
    wl.prediction_accuracy = runtime_.predictionAccuracy();
    wl.avg_dirty_at_ckpt = wl_stats_.dirty_at_ckpt.mean();
    wl.dyn_maxline_raises =
        static_cast<std::uint64_t>(wl_stats_.dyn_maxline_raises.value());
    if (outages > 0)
        wl.writebacks_per_on_period =
            wl_stats_.cleanings.value() / static_cast<double>(outages);
}

void
WLCache::onDirtyEviction(Addr line_addr)
{
    if (!wl_.eager_evict_cleanup) {
        // §5.4 default: the entry goes stale and is dropped lazily
        // when selected for cleaning or checkpointing.
        return;
    }
    // Ablation: CAM-search the queue and release the slot now.
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    wl_.dq_cam_search_energy);
    for (unsigned i = 0; i < dq_.capacity(); ++i) {
        const DqEntry &e = dq_.entry(i);
        if (e.state == DqEntryState::Pending &&
            e.line_addr == line_addr) {
            dq_.remove(i);
            return;
        }
    }
}

void
WLCache::ioState(StateIo &io)
{
    BaseTagCache::ioState(io);
    io.section("WLC ");
    unsigned maxline = wl_.maxline;
    io.u32(maxline);
    if (io.loading())
        setMaxline(maxline);
    dq_.ioState(io);
    runtime_.ioState(io);
}

} // namespace core
} // namespace wlcache
