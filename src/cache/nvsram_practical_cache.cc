#include "cache/nvsram_practical_cache.hh"

#include <cstring>

#include "mem/byte_image.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

namespace {

/** Way-split helper: half the ways, half the bytes, same sets. */
CacheParams
halfWays(const CacheParams &p)
{
    CacheParams h = p;
    wlc_assert(p.assoc >= 2 && p.assoc % 2 == 0,
               "NVSRAM(practical) needs an even associativity");
    h.assoc = p.assoc / 2;
    h.size_bytes = p.size_bytes / 2;
    return h;
}

/** NV-way parameters: NV technology numbers on the SRAM geometry. */
CacheParams
nvWayParams(const CacheParams &nv_tech, const CacheParams &geom)
{
    CacheParams p = nv_tech;
    p.size_bytes = geom.size_bytes;
    p.assoc = geom.assoc;
    p.line_bytes = geom.line_bytes;
    p.repl = geom.repl;
    return p;
}

} // anonymous namespace

NvsramPracticalCache::NvsramPracticalCache(
    const CacheParams &params, const CacheParams &nv_tech,
    const NvsramPracticalParams &prac, mem::NvmMemory &nvm,
    energy::EnergyMeter *meter)
    : DataCache("nvsram_practical"), sram_params_(halfWays(params)),
      nv_params_(nvWayParams(nv_tech, sram_params_)), prac_(prac),
      sram_(sram_params_), nv_(nv_params_), nvm_(nvm), meter_(meter),
      stat_migrations_(stat_group_.addScalar(
          "migrations", "SRAM->NV way line migrations")),
      stat_nv_hits_(
          stat_group_.addScalar("nv_hits", "hits served by NV ways")),
      stat_nv_writebacks_(stat_group_.addScalar(
          "nv_writebacks", "background NV-way write-backs to NVM"))
{
}

Cycle
NvsramPracticalCache::writeBackLine(TagArray &tags, LineRef ref,
                                    Cycle now)
{
    const auto res = nvm_.write(tags.lineAddr(ref), tags.lineBytes(),
                                tags.data(ref), now);
    ++stats_.writebacks;
    return res.ready;
}

void
NvsramPracticalCache::maintain(Addr set_addr, Cycle now)
{
    // Keep enough free NV room for JIT checkpointing: a set's NV way
    // only needs to be clean while its SRAM way holds dirty data
    // that would have to migrate there at a power failure. Writing
    // back any earlier would degenerate into line-granular
    // write-through; writing back any later would break the JIT
    // guarantee. This is the "additional traffic to NVM main memory"
    // §2.3.3 charges the practical design for.
    const std::uint32_t set =
        static_cast<std::uint32_t>((set_addr / nv_.lineBytes()) %
                                   nv_.numSets());
    bool sram_dirty = false;
    for (std::uint32_t way = 0; way < sram_.assoc(); ++way) {
        const LineRef ref{ set, way };
        if (sram_.valid(ref) && sram_.dirty(ref))
            sram_dirty = true;
    }
    if (!sram_dirty)
        return;
    for (std::uint32_t way = 0; way < nv_.assoc(); ++way) {
        const LineRef ref{ set, way };
        if (nv_.valid(ref) && nv_.dirty(ref)) {
            writeBackLine(nv_, ref, now);
            nv_.setDirty(ref, false);
            ++stat_nv_writebacks_;
        }
    }
}

bool
NvsramPracticalCache::migrate(LineRef sram_ref, Cycle now,
                              bool charge_checkpoint)
{
    const Addr laddr = sram_.lineAddr(sram_ref);
    LineRef nv_ref = nv_.victim(laddr);
    if (nv_.valid(nv_ref)) {
        if (nv_.dirty(nv_ref)) {
            // Should be rare thanks to maintain(); push it out.
            writeBackLine(nv_, nv_ref, now);
            nv_.setDirty(nv_ref, false);
            ++stat_nv_writebacks_;
        }
        nv_.invalidate(nv_ref);
    }
    nv_.install(nv_ref, laddr, sram_.data(sram_ref));
    nv_.setDirty(nv_ref, true);  // still stale w.r.t. main NVM
    if (meter_)
        meter_->add(charge_checkpoint
                        ? energy::EnergyCategory::Checkpoint
                        : energy::EnergyCategory::CacheWrite,
                    prac_.migrate_line_energy);
    ++stat_migrations_;
    sram_.setDirty(sram_ref, false);
    sram_.invalidate(sram_ref);
    return true;
}

CacheAccessResult
NvsramPracticalCache::access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value,
                             std::uint64_t *load_out, Cycle now)
{
    const unsigned off =
        static_cast<unsigned>(addr & (sram_.lineBytes() - 1));
    wlc_assert(off + bytes <= sram_.lineBytes());

    auto copy_out = [&](TagArray &tags, LineRef ref) {
        if (load_out) {
            std::uint64_t v = 0;
            std::memcpy(&v, tags.data(ref) + off, bytes);
            *load_out = v;
        }
    };
    auto write_in = [&](TagArray &tags, LineRef ref) {
        std::memcpy(tags.data(ref) + off, &value, bytes);
    };

    const auto sram_ref = sram_.lookup(addr);
    const auto nv_ref = sram_ref ? std::nullopt : nv_.lookup(addr);

    if (op == MemOp::Load) {
        ++stats_.loads;
        if (sram_ref) {
            ++stats_.load_hits;
            sram_.touch(*sram_ref);
            if (meter_)
                meter_->add(energy::EnergyCategory::CacheRead,
                            sram_params_.access_energy_read);
            copy_out(sram_, *sram_ref);
            return { now + sram_params_.hit_latency, true };
        }
        if (nv_ref) {
            // Data lives in the NV way: slower and hotter (§2.3.3).
            ++stats_.load_hits;
            ++stat_nv_hits_;
            nv_.touch(*nv_ref);
            if (meter_)
                meter_->add(energy::EnergyCategory::CacheRead,
                            nv_params_.access_energy_read);
            copy_out(nv_, *nv_ref);
            return { now + nv_params_.hit_latency, true };
        }
        // Miss: fill the SRAM way; a dirty SRAM victim migrates.
        LineRef victim = sram_.victim(addr);
        Cycle t = now + sram_params_.miss_lookup_latency;
        if (sram_.valid(victim)) {
            ++stats_.evictions;
            if (sram_.dirty(victim)) {
                ++stats_.dirty_evictions;
                migrate(victim, t, false);
            } else {
                sram_.invalidate(victim);
            }
        }
        std::uint8_t buf[256];
        const auto res =
            nvm_.read(sram_.lineAddrOf(addr), sram_.lineBytes(), t, buf);
        sram_.install(victim, sram_.lineAddrOf(addr), buf);
        ++stats_.fills;
        if (meter_)
            meter_->add(energy::EnergyCategory::CacheWrite,
                        sram_params_.line_fill_energy);
        copy_out(sram_, victim);
        return { res.ready + sram_params_.hit_latency, false };
    }

    ++stats_.stores;
    if (sram_ref) {
        ++stats_.store_hits;
        sram_.touch(*sram_ref);
        write_in(sram_, *sram_ref);
        sram_.setDirty(*sram_ref, true);
        if (meter_)
            meter_->add(energy::EnergyCategory::CacheWrite,
                        sram_params_.access_energy_write);
        maintain(addr, now);
        return { now + sram_params_.write_hit_latency, true };
    }
    if (nv_ref) {
        ++stats_.store_hits;
        ++stat_nv_hits_;
        nv_.touch(*nv_ref);
        write_in(nv_, *nv_ref);
        nv_.setDirty(*nv_ref, true);
        if (meter_)
            meter_->add(energy::EnergyCategory::CacheWrite,
                        nv_params_.access_energy_write);
        maintain(addr, now);
        return { now + nv_params_.write_hit_latency, true };
    }
    // Store miss: write-allocate into the SRAM way.
    LineRef victim = sram_.victim(addr);
    Cycle t = now + sram_params_.miss_lookup_latency;
    if (sram_.valid(victim)) {
        ++stats_.evictions;
        if (sram_.dirty(victim)) {
            ++stats_.dirty_evictions;
            migrate(victim, t, false);
        } else {
            sram_.invalidate(victim);
        }
    }
    std::uint8_t buf[256];
    const auto res =
        nvm_.read(sram_.lineAddrOf(addr), sram_.lineBytes(), t, buf);
    sram_.install(victim, sram_.lineAddrOf(addr), buf);
    ++stats_.fills;
    write_in(sram_, victim);
    sram_.setDirty(victim, true);
    if (meter_)
        meter_->add(energy::EnergyCategory::CacheWrite,
                    sram_params_.line_fill_energy +
                        sram_params_.access_energy_write);
    maintain(addr, now);
    return { res.ready + sram_params_.write_hit_latency, false };
}

Cycle
NvsramPracticalCache::checkpoint(Cycle now)
{
    Cycle t = now;
    unsigned moved = 0;
    sram_.forEachValidLine([&](LineRef ref, Addr, bool dirty) {
        if (dirty) {
            migrate(ref, t, true);
            t += prac_.migrate_line_latency;
            ++moved;
        }
    });
    stats_.checkpoint_lines += moved;
    WLC_TIMELINE(tl_, Checkpoint, now, "nvsram_prac", moved, t - now);
    return t;
}

void
NvsramPracticalCache::powerLoss()
{
    sram_.invalidateAll();
}

Cycle
NvsramPracticalCache::drainAndFlush(Cycle now)
{
    Cycle t = now;
    sram_.forEachValidLine([&](LineRef ref, Addr, bool dirty) {
        if (dirty) {
            t = writeBackLine(sram_, ref, t);
            sram_.setDirty(ref, false);
        }
    });
    nv_.forEachValidLine([&](LineRef ref, Addr, bool dirty) {
        if (dirty) {
            t = writeBackLine(nv_, ref, t);
            nv_.setDirty(ref, false);
        }
    });
    return t;
}

double
NvsramPracticalCache::checkpointEnergyBound() const
{
    // Worst case: every SRAM line dirty, every target NV way dirty
    // too (write-back + migration each).
    return static_cast<double>(sram_.numLines()) *
        (prac_.migrate_line_energy +
         nvm_.params().writeEnergy(sram_.lineBytes()));
}

void
NvsramPracticalCache::collectPersistentOverlay(
    mem::ByteImage &overlay) const
{
    nv_.forEachValidLine([&](LineRef ref, Addr laddr, bool dirty) {
        if (dirty)
            overlay.write(laddr, nv_.data(ref), nv_.lineBytes());
    });
}

double
NvsramPracticalCache::leakageWatts() const
{
    return sram_params_.leakage_watts + nv_params_.leakage_watts;
}

void
NvsramPracticalCache::ioState(StateIo &io)
{
    DataCache::ioState(io);
    io.section("NVSP");
    sram_.ioState(io);
    nv_.ioState(io);
}

} // namespace cache
} // namespace wlcache
