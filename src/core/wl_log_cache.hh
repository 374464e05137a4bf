/**
 * @file
 * WL-Log (DESIGN.md §17): WL-Cache with its persists routed through a
 * sequential NVM journal. The DirtyQueue, maxline/waterline schedule
 * and dynamic adaptation are inherited unchanged; every clean,
 * write-back and checkpoint flush appends a record to the journal
 * instead of writing the line's home address, fills read the newest
 * journalled copy, and the volatile line -> slot mapping is rebuilt by
 * a timed header replay at every boot.
 */

#ifndef WLCACHE_CORE_WL_LOG_CACHE_HH
#define WLCACHE_CORE_WL_LOG_CACHE_HH

#include "core/wl_cache.hh"
#include "mem/log/nvm_journal.hh"

namespace wlcache {
namespace core {

/** The WL-Cache with a log-structured NVM write path. */
class WlLogCache : public WLCache
{
  public:
    WlLogCache(const cache::CacheParams &params, const WlParams &wl,
               const mem::NvmLogParams &log, mem::NvmMemory &nvm,
               energy::EnergyMeter *meter,
               const AdaptiveConfig &adaptive = AdaptiveConfig());

    Cycle checkpoint(Cycle now) override;
    void powerLoss() override;
    Cycle powerRestore(Cycle now) override;
    Cycle drainAndFlush(Cycle now) override;
    const char *designName() const override { return "WL-Log"; }

    /** A checkpoint flush writes a whole slot (header + payload). */
    double lineCheckpointEnergy() const override;

    /**
     * The oracle's view re-derives the newest record per line from the
     * on-media headers (scan()), never from the volatile mapping.
     */
    void collectPersistentOverlay(mem::ByteImage &overlay) const override;

    /** Also the journal's `nvm_log` group / timeline rows. */
    void reportRun(std::uint64_t outages, cache::WlRunStats &wl,
                   mem::NvmJournalStats &nvm_log) const override;
    void setTimeline(telemetry::TimelineBuffer *tl) override;

    /** WL-Cache state followed by the journal's "NLOG" section. */
    void ioState(StateIo &io) override;

    mem::NvmJournal &journal() { return journal_; }
    const mem::NvmJournal &journal() const { return journal_; }

  protected:
    Cycle persistLine(Addr line_addr, const std::uint8_t *data,
                      unsigned bytes, Cycle now) override;
    Cycle readLineImage(Addr line_addr, std::uint8_t *out,
                        unsigned bytes, Cycle now) override;

  private:
    /** Newest checksum-valid record per line, by on-media scan. */
    std::unordered_map<Addr, mem::NvmLogRecord> newestRecords() const;

    mem::NvmJournal journal_;
    /**
     * Set while the JIT checkpoint flushes: its appends use the
     * standing reserve and must never compact (compaction is outside
     * the checkpoint energy bound).
     */
    bool in_checkpoint_ = false;
};

} // namespace core
} // namespace wlcache

#endif // WLCACHE_CORE_WL_LOG_CACHE_HH
