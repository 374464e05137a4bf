#include "cache/base_tag_cache.hh"

#include <algorithm>
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

CacheAccessResult
BaseTagCache::loadSlow(Addr addr, unsigned bytes,
                       std::uint64_t *load_out, Cycle issue)
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
BaseTagCache::storeAllocateSlow(Addr addr, unsigned bytes,
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
BaseTagCache::ioState(StateIo &io)
{
    DataCache::ioState(io);
    tags_.ioState(io);
}

} // namespace cache
} // namespace wlcache
