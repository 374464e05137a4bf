#include "cache/nvsram_cache.hh"

#include "mem/byte_image.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

NvsramCacheWB::NvsramCacheWB(const CacheParams &params,
                             const NvsramParams &nvp, mem::NvmMemory &nvm,
                             energy::EnergyMeter *meter)
    : BaseTagCache("nvsram_wb", params, nvm, meter), nvsram_(nvp)
{
}

CacheAccessResult
NvsramCacheWB::access(MemOp op, Addr addr, unsigned bytes,
                      std::uint64_t value, std::uint64_t *load_out,
                      Cycle now)
{
    if (op == MemOp::Load)
        return load(addr, bytes, load_out, now);
    return storeWriteBack(addr, bytes, value, now);
}

Cycle
NvsramCacheWB::checkpoint(Cycle now)
{
    backup_.clear();
    Cycle t = now;
    unsigned dirty_lines = 0;
    tags_.forEachValidLine([&](LineRef ref, Addr laddr, bool dirty) {
        BackupLine bl;
        bl.addr = laddr;
        bl.dirty = dirty;
        bl.data.assign(tags_.data(ref),
                       tags_.data(ref) + tags_.lineBytes());
        backup_.push_back(std::move(bl));
        if (dirty || nvsram_.backup_full) {
            if (dirty)
                ++dirty_lines;
            t += nvsram_.backup_line_latency;
            if (meter_)
                meter_->add(energy::EnergyCategory::Checkpoint,
                            nvsram_.backup_line_energy);
        }
    });
    stats_.checkpoint_lines += dirty_lines;
    has_backup_ = true;
    WLC_TIMELINE(tl_, Checkpoint, now, "nvsram_wb", dirty_lines,
                 t - now);
    return t;
}

void
NvsramCacheWB::powerLoss()
{
    tags_.invalidateAll();
}

Cycle
NvsramCacheWB::powerRestore(Cycle now)
{
    if (!has_backup_)
        return now;
    Cycle t = now;
    for (const auto &bl : backup_) {
        auto victim = tags_.victim(bl.addr);
        // The runtime array is empty at boot, so installs never hit
        // a dirty victim.
        tags_.install(victim, bl.addr, bl.data.data());
        if (bl.dirty)
            tags_.setDirty(victim, true);
        t += nvsram_.restore_line_latency;
        if (meter_)
            meter_->add(energy::EnergyCategory::Restore,
                        nvsram_.restore_line_energy);
    }
    WLC_TIMELINE(tl_, Restore, now, "nvsram_wb", backup_.size(),
                 t - now);
    return t;
}

Cycle
NvsramCacheWB::drainAndFlush(Cycle now)
{
    const Cycle t = flushDirty(now);
    has_backup_ = false;
    backup_.clear();
    return t;
}

double
NvsramCacheWB::checkpointEnergyBound() const
{
    return static_cast<double>(tags_.numLines()) *
        nvsram_.backup_line_energy;
}

void
NvsramCacheWB::collectPersistentOverlay(mem::ByteImage &overlay) const
{
    if (!has_backup_)
        return;
    for (const auto &bl : backup_)
        if (bl.dirty)
            overlay.write(bl.addr, bl.data.data(), tags_.lineBytes());
}

void
NvsramCacheWB::ioState(StateIo &io)
{
    BaseTagCache::ioState(io);
    io.section("NVSR");
    io.b(has_backup_);
    io.seq(backup_, [&io](BackupLine &bl) {
        io.u64(bl.addr);
        io.b(bl.dirty);
        io.vecU8(bl.data);
    });
}

} // namespace cache
} // namespace wlcache
