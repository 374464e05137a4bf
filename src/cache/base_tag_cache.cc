#include "cache/base_tag_cache.hh"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

const PersistQueue::Entry *
PersistQueue::find(Addr addr) const
{
    for (const Entry &e : q_)
        if (e.addr == addr)
            return &e;
    return nullptr;
}

Cycle
PersistQueue::waitForSlot(std::size_t capacity, Cycle now,
                          stats::Scalar &stall_cycles)
{
    if (q_.size() < capacity)
        return now;
    const Cycle t = std::max(now, q_.front().ready);
    stall_cycles += t - now;
    popCompleted(t);
    return t;
}

void
PersistQueue::ioState(StateIo &io)
{
    io.seq(q_, [&io](Entry &e) {
        io.u64(e.addr);
        io.u64(e.ready);
    });
}

namespace {

/**
 * memcpy of an access's 1, 2, 4 or 8 bytes as a fixed-width move, so
 * the common sizes need no libc call with a runtime length.
 */
void
copyAccess(void *dst, const void *src, unsigned bytes)
{
    switch (bytes) {
      case 1: std::memcpy(dst, src, 1); break;
      case 2: std::memcpy(dst, src, 2); break;
      case 4: std::memcpy(dst, src, 4); break;
      case 8: std::memcpy(dst, src, 8); break;
      default: std::memcpy(dst, src, bytes); break;
    }
}

} // namespace

BaseTagCache::BaseTagCache(const std::string &name,
                           const CacheParams &params, mem::NvmMemory &nvm,
                           energy::EnergyMeter *meter)
    : DataCache(name), params_(params), tags_(params), nvm_(nvm),
      meter_(meter),
      read_aj_(energy::toAttojoules(params.access_energy_read)),
      write_aj_(energy::toAttojoules(params.access_energy_write)),
      repl_aj_(params.repl == ReplPolicy::LRU
                   ? energy::toAttojoules(params.lru_update_energy)
                   : 0),
      fill_aj_(energy::toAttojoules(params.line_fill_energy)),
      line_read_aj_(energy::toAttojoules(params.line_read_energy))
{
}

void
BaseTagCache::chargeArrayRead()
{
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheRead, read_aj_);
}

void
BaseTagCache::chargeArrayWrite()
{
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheWrite, write_aj_);
}

void
BaseTagCache::chargeReplUpdate()
{
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheWrite, repl_aj_);
}

void
BaseTagCache::chargeLineFill()
{
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheWrite, fill_aj_);
}

void
BaseTagCache::chargeLineRead()
{
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheRead, line_read_aj_);
}

CacheAccessResult
BaseTagCache::load(Addr addr, unsigned bytes, std::uint64_t *load_out,
                   Cycle issue)
{
    ++stats_.loads;
    auto ref = tags_.lookup(addr);
    const bool hit = ref.has_value();
    Cycle t = issue;
    if (hit) {
        ++stats_.load_hits;
        tags_.touch(*ref);
    } else {
        std::tie(ref, t) =
            fillLine(addr, issue + params_.miss_lookup_latency);
    }
    chargeArrayRead();
    chargeReplUpdate();
    if (load_out)
        *load_out = readLineData(*ref, addr, bytes);
    return { t + params_.hit_latency, hit };
}

BaseTagCache::StoreAlloc
BaseTagCache::storeAllocate(Addr addr, unsigned bytes,
                            std::uint64_t value, Cycle now)
{
    ++stats_.stores;
    auto ref = tags_.lookup(addr);
    const bool hit = ref.has_value();
    Cycle t = now;
    if (hit) {
        ++stats_.store_hits;
        tags_.touch(*ref);
    } else {
        std::tie(ref, t) =
            fillLine(addr, now + params_.miss_lookup_latency);
    }
    writeLineData(*ref, addr, bytes, value);
    chargeArrayWrite();
    chargeReplUpdate();
    return { *ref, t, hit };
}

CacheAccessResult
BaseTagCache::storeWriteBack(Addr addr, unsigned bytes,
                             std::uint64_t value, Cycle now)
{
    const StoreAlloc s = storeAllocate(addr, bytes, value, now);
    tags_.setDirty(s.line, true);
    return { s.ready + params_.write_hit_latency, s.hit };
}

bool
BaseTagCache::storeNoAllocate(Addr addr, unsigned bytes,
                              std::uint64_t value)
{
    ++stats_.stores;
    const auto ref = tags_.lookup(addr);
    if (!ref)
        return false;
    ++stats_.store_hits;
    tags_.touch(*ref);
    writeLineData(*ref, addr, bytes, value);
    chargeArrayWrite();
    chargeReplUpdate();
    return true;
}

Cycle
BaseTagCache::flushDirty(Cycle now)
{
    Cycle t = now;
    tags_.forEachValidLine([&](LineRef ref, Addr, bool dirty) {
        if (dirty) {
            t = writeBackLine(ref, t);
            tags_.setDirty(ref, false);
        }
    });
    return t;
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
    copyAccess(tags_.data(ref) + off, &value, bytes);
}

std::uint64_t
BaseTagCache::readLineData(LineRef ref, Addr addr, unsigned bytes) const
{
    const unsigned off = tags_.lineOffset(addr);
    wlc_assert(off + bytes <= tags_.lineBytes(),
               "load crosses a cache line boundary");
    std::uint64_t v = 0;
    copyAccess(&v, tags_.data(ref) + off, bytes);
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
