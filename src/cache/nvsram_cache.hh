/**
 * @file
 * NVSRAM cache, "ideal" variant (paper §2.3.3, Figure 1(d)): a
 * volatile write-back SRAM cache coupled with a same-size on-chip NVM
 * counterpart. At a JIT checkpoint it magically persists exactly the
 * dirty lines into the counterpart; at reboot it restores the whole
 * image, resuming with a warm cache. Because in the worst case every
 * line may be dirty, the system must reserve enough capacitor energy
 * to back up the entire cache — the design's key weakness under
 * frequent outages and the baseline the paper normalizes against.
 */

#ifndef WLCACHE_CACHE_NVSRAM_CACHE_HH
#define WLCACHE_CACHE_NVSRAM_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/base_tag_cache.hh"

namespace wlcache {
namespace cache {

/** On-chip backup-path parameters for the NVSRAM counterpart. */
struct NvsramParams
{
    /**
     * NVSRAM(full) (paper §2.3.3 [41]): checkpoint the *entire*
     * SRAM array instead of only the dirty lines. The default false
     * models NVSRAM(ideal) [16], the stronger baseline the paper
     * compares against.
     */
    bool backup_full = false;
    /** Energy to back one line up into the on-chip NVM counterpart. */
    double backup_line_energy = 6.0e-9;
    /** Energy to restore one line at boot. */
    double restore_line_energy = 2.0e-9;
    /** Cycles per line during backup (wide on-chip transfer). */
    Cycle backup_line_latency = 2;
    /** Cycles per line during restore. */
    Cycle restore_line_latency = 2;
};

/** Volatile SRAM write-back cache with an ideal NVM backup image. */
class NvsramCacheWB : public BaseTagCache
{
  public:
    NvsramCacheWB(const CacheParams &params, const NvsramParams &nvp,
                  mem::NvmMemory &nvm, energy::EnergyMeter *meter);

    CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value, std::uint64_t *load_out,
                             Cycle now) override;

    /**
     * JIT checkpoint: persist the dirty lines into the on-chip
     * counterpart and snapshot the image (the "ideal" design copies
     * dirty lines only — clean data is already safe in NVM and the
     * tag image is mirrored for free).
     */
    Cycle checkpoint(Cycle now) override;

    void powerLoss() override;
    Cycle powerRestore(Cycle now) override;
    Cycle drainAndFlush(Cycle now) override;

    /** Worst case: every line dirty. */
    double checkpointEnergyBound() const override;

    /** Backed-up dirty lines shadow their NVM home locations. */
    void collectPersistentOverlay(mem::ByteImage &overlay) const override;

    const char *designName() const override { return "NVSRAM-WB"; }

    void ioState(StateIo &io) override;

  private:
    /** One backed-up line in the counterpart image. */
    struct BackupLine
    {
        Addr addr;
        bool dirty;
        std::vector<std::uint8_t> data;
    };

    NvsramParams nvsram_;
    std::vector<BackupLine> backup_;
    bool has_backup_ = false;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_NVSRAM_CACHE_HH
