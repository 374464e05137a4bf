#include "cache/base_tag_cache.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

BaseTagCache::BaseTagCache(const std::string &name,
                           const CacheParams &params, mem::NvmMemory &nvm,
                           energy::EnergyMeter *meter)
    : DataCache(name), params_(params), tags_(params), nvm_(nvm),
      meter_(meter)
{
}

void
BaseTagCache::chargeArrayRead()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheRead,
                    params_.access_energy_read);
}

void
BaseTagCache::chargeArrayWrite()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    params_.access_energy_write);
}

void
BaseTagCache::chargeReplUpdate()
{
    if (meter_ && params_.repl == ReplPolicy::LRU)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    params_.lru_update_energy);
}

void
BaseTagCache::chargeLineFill()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    params_.line_fill_energy);
}

void
BaseTagCache::chargeLineRead()
{
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheRead,
                    params_.line_read_energy);
}

std::pair<LineRef, Cycle>
BaseTagCache::fillLine(Addr addr, Cycle now)
{
    const Addr laddr = tags_.lineAddrOf(addr);
    LineRef victim = tags_.victim(addr);
    Cycle t = now;
    if (tags_.valid(victim)) {
        ++stats_.evictions;
        WLC_TIMELINE(tl_, Eviction, now, designName(),
                     tags_.lineAddr(victim),
                     tags_.dirty(victim) ? 1 : 0);
        if (tags_.dirty(victim)) {
            ++stats_.dirty_evictions;
            onDirtyEviction(tags_.lineAddr(victim));
            t = writeBackLine(victim, t);
            tags_.setDirty(victim, false);
        }
        tags_.invalidate(victim);
    }
    // Fetch the newest persisted line image (home NVM, or the
    // journal for log-structured designs).
    std::uint8_t buf[256];
    wlc_assert(tags_.lineBytes() <= sizeof(buf));
    t = readLineImage(laddr, buf, tags_.lineBytes(), t);
    tags_.install(victim, laddr, buf);
    chargeLineFill();
    ++stats_.fills;
    return { victim, t };
}

Cycle
BaseTagCache::writeBackLine(LineRef ref, Cycle now)
{
    wlc_assert(tags_.valid(ref));
    chargeLineRead();
    const Cycle ready = persistLine(tags_.lineAddr(ref), tags_.data(ref),
                                    tags_.lineBytes(), now);
    ++stats_.writebacks;
    return ready;
}

void
BaseTagCache::writeLineData(LineRef ref, Addr addr, unsigned bytes,
                            std::uint64_t value)
{
    const unsigned off = tags_.lineOffset(addr);
    wlc_assert(off + bytes <= tags_.lineBytes(),
               "store crosses a cache line boundary");
    std::memcpy(tags_.data(ref) + off, &value, bytes);
}

std::uint64_t
BaseTagCache::readLineData(LineRef ref, Addr addr, unsigned bytes) const
{
    const unsigned off = tags_.lineOffset(addr);
    wlc_assert(off + bytes <= tags_.lineBytes(),
               "load crosses a cache line boundary");
    std::uint64_t v = 0;
    std::memcpy(&v, tags_.data(ref) + off, bytes);
    return v;
}

void
BaseTagCache::ioState(StateIo &io)
{
    DataCache::ioState(io);
    tags_.ioState(io);
}

} // namespace cache
} // namespace wlcache
