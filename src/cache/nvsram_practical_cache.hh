/**
 * @file
 * NVSRAM(practical) (paper §2.3.3 [72, 73]): instead of a full
 * shadow array, each set pairs SRAM ways with NV ways. Fills land in
 * the SRAM ways; at run time dirty SRAM lines opportunistically
 * migrate into a clean NV way of the same set, and dirty NV lines
 * are written back to NVM main memory in the background so a free NV
 * way is always available for JIT checkpointing. At a power failure
 * the remaining dirty SRAM lines move into their set's NV way. The
 * costs the paper calls out — extra NVM write traffic from keeping
 * NV ways clean, and slow/hot NV hits when data lives in an NV way —
 * fall out of the model.
 *
 * Geometry here: the configured cache is split way-wise, half SRAM
 * and half NV (a 2-way cache becomes 1 SRAM + 1 NV way per set).
 */

#ifndef WLCACHE_CACHE_NVSRAM_PRACTICAL_CACHE_HH
#define WLCACHE_CACHE_NVSRAM_PRACTICAL_CACHE_HH

#include "cache/base_tag_cache.hh"

namespace wlcache {
namespace cache {

/** Parameters specific to the hybrid (practical) NVSRAM. */
struct NvsramPracticalParams
{
    /** Energy to migrate one line SRAM -> NV way. */
    double migrate_line_energy = 6.0e-9;
    /** Cycles for an SRAM -> NV way migration. */
    Cycle migrate_line_latency = 12;
};

/** Way-partitioned SRAM+NV hybrid cache. */
class NvsramPracticalCache : public DataCache
{
  public:
    /**
     * @param params Overall geometry (split way-wise in half) and
     *        SRAM technology numbers.
     * @param nv_tech NV-way technology (latency/energy) parameters.
     * @param prac Migration-path parameters.
     */
    NvsramPracticalCache(const CacheParams &params,
                         const CacheParams &nv_tech,
                         const NvsramPracticalParams &prac,
                         mem::NvmMemory &nvm,
                         energy::EnergyMeter *meter);

    CacheAccessResult access(MemOp op, Addr addr, unsigned bytes,
                             std::uint64_t value, std::uint64_t *load_out,
                             Cycle now) override;

    /** Move remaining dirty SRAM lines into their set's NV way. */
    Cycle checkpoint(Cycle now) override;

    /** SRAM ways are lost; NV ways survive. */
    void powerLoss() override;

    Cycle drainAndFlush(Cycle now) override;

    /** Worst case: every SRAM way dirty and migrated. */
    double checkpointEnergyBound() const override;

    void collectPersistentOverlay(mem::ByteImage &overlay) const override;

    double leakageWatts() const override;
    const char *designName() const override
    {
        return "NVSRAM-practical";
    }

    const TagArray &sramTags() const { return sram_; }
    const TagArray &nvTags() const { return nv_; }

    void ioState(StateIo &io) override;

  private:
    /** Write a full line image from @p tags to NVM main memory. */
    Cycle writeBackLine(TagArray &tags, LineRef ref, Cycle now);

    /**
     * Background maintenance: keep NV ways clean by writing dirty NV
     * lines back to NVM (the "additional traffic" of §2.3.3), and
     * migrate dirty SRAM lines into clean NV ways.
     */
    void maintain(Addr set_addr, Cycle now);

    /** Migrate one dirty SRAM line into its set's NV way. */
    bool migrate(LineRef sram_ref, Cycle now, bool charge_checkpoint);

    CacheParams sram_params_;
    CacheParams nv_params_;
    NvsramPracticalParams prac_;
    TagArray sram_;
    TagArray nv_;
    mem::NvmMemory &nvm_;
    energy::EnergyMeter *meter_;

    stats::Scalar &stat_migrations_;
    stats::Scalar &stat_nv_hits_;
    stats::Scalar &stat_nv_writebacks_;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_NVSRAM_PRACTICAL_CACHE_HH
