#include "core/wl_log_cache.hh"

#include "mem/byte_image.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace core {

WlLogCache::WlLogCache(const cache::CacheParams &params,
                       const WlParams &wl, const mem::NvmLogParams &log,
                       mem::NvmMemory &nvm, energy::EnergyMeter *meter,
                       const AdaptiveConfig &adaptive)
    : WLCache("wl_log_cache", params, wl, nvm, meter, adaptive),
      journal_(log, params.line_bytes, nvm)
{
}

void
WlLogCache::reportRun(std::uint64_t outages, cache::WlRunStats &wl,
                      mem::NvmJournalStats &nvm_log) const
{
    WLCache::reportRun(outages, wl, nvm_log);
    nvm_log = journal_.stats();
    nvm_log.live_lines = journal_.liveLines();
}

void
WlLogCache::setTimeline(telemetry::TimelineBuffer *tl)
{
    WLCache::setTimeline(tl);
    journal_.setTimeline(tl);
}

Cycle
WlLogCache::persistLine(Addr line_addr, const std::uint8_t *data,
                        unsigned bytes, Cycle now)
{
    wlc_assert(bytes == tags_.lineBytes(),
               "journal persists whole lines only");
    Cycle t = now;
    // Standing reserve: keep a whole DirtyQueue's worth of free slots
    // ahead of the cursor (dq_size, not maxline: dynamic adaptation
    // may raise maxline before the next checkpoint).
    if (!in_checkpoint_)
        t = journal_.ensureSpace(wlParams().dq_size, t);
    return journal_.append(line_addr, data, t);
}

Cycle
WlLogCache::readLineImage(Addr line_addr, std::uint8_t *out,
                          unsigned bytes, Cycle now)
{
    if (const unsigned *slot = journal_.lookup(line_addr))
        return journal_.readPayload(*slot, out, now);
    return WLCache::readLineImage(line_addr, out, bytes, now);
}

Cycle
WlLogCache::checkpoint(Cycle now)
{
    in_checkpoint_ = true;
    const Cycle t = WLCache::checkpoint(now);
    in_checkpoint_ = false;
    return t;
}

void
WlLogCache::powerLoss()
{
    WLCache::powerLoss();
    journal_.onPowerLoss();
}

Cycle
WlLogCache::powerRestore(Cycle now)
{
    return journal_.bootReplay(WLCache::powerRestore(now));
}

Cycle
WlLogCache::drainAndFlush(Cycle now)
{
    // Migrate everything home so raw NVM equals the final image.
    return journal_.compactAll(WLCache::drainAndFlush(now));
}

double
WlLogCache::lineCheckpointEnergy() const
{
    return nvm_.params().writeEnergy(journal_.slotBytes()) +
        params_.line_read_energy;
}

std::unordered_map<Addr, mem::NvmLogRecord>
WlLogCache::newestRecords() const
{
    std::unordered_map<Addr, mem::NvmLogRecord> newest;
    for (const mem::NvmLogRecord &r : journal_.scan()) {
        auto [it, inserted] = newest.emplace(r.line_addr, r);
        if (!inserted && r.seqno > it->second.seqno)
            it->second = r;
    }
    return newest;
}

void
WlLogCache::collectPersistentOverlay(mem::ByteImage &overlay) const
{
    std::uint8_t line[256];
    for (const auto &[laddr, rec] : newestRecords()) {
        journal_.peekPayload(rec.slot, line);
        overlay.write(laddr, line, tags_.lineBytes());
    }
}

void
WlLogCache::ioState(StateIo &io)
{
    WLCache::ioState(io);
    journal_.ioState(io);
}

} // namespace core
} // namespace wlcache
