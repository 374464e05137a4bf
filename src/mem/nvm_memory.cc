#include "mem/nvm_memory.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include <sys/mman.h>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace mem {

NvmMemory::ZeroMapping::ZeroMapping(std::size_t bytes) : size_(bytes)
{
    wlc_assert(bytes > 0);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    wlc_assert(p != MAP_FAILED, "cannot map %zu bytes of NVM: %s",
               bytes, std::strerror(errno));
    data_ = static_cast<std::uint8_t *>(p);
}

NvmMemory::ZeroMapping::~ZeroMapping()
{
    munmap(data_, size_);
}

NvmMemory::NvmMemory(const NvmParams &params, energy::EnergyMeter *meter)
    : params_(params), meter_(meter), data_(params.size_bytes),
      model_(NvmTimingModel::create(params)),
      stat_group_("nvm"),
      stat_reads_(stat_group_.addScalar("reads", "NVM read accesses")),
      stat_writes_(stat_group_.addScalar("writes", "NVM write accesses")),
      stat_bytes_read_(
          stat_group_.addScalar("bytes_read", "bytes read from NVM")),
      stat_bytes_written_(
          stat_group_.addScalar("bytes_written", "bytes written to NVM")),
      stat_bank_conflicts_(stat_group_.addScalar(
          "bank_conflicts", "accesses gated by pending bank work")),
      stat_queue_stall_cycles_(stat_group_.addScalar(
          "queue_stall_cycles",
          "cycles stalled on a full bank queue (back-pressure)")),
      stat_turnaround_stall_cycles_(stat_group_.addScalar(
          "turnaround_stall_cycles",
          "cycles reads waited out write-to-read turnaround (tWTR)")),
      stat_row_hits_(stat_group_.addScalar(
          "row_hits", "accesses served from an open row buffer")),
      stat_row_misses_(stat_group_.addScalar(
          "row_misses", "accesses that paid a row activation")),
      stat_fast_reads_(stat_group_.addScalar(
          "hybrid_fast_reads", "reads served by the STT fast region")),
      stat_fast_writes_(stat_group_.addScalar(
          "hybrid_fast_writes",
          "writes served by the STT fast region")),
      stat_promotions_(stat_group_.addScalar(
          "hybrid_promotions", "lines promoted into the fast region")),
      stat_evictions_(stat_group_.addScalar(
          "hybrid_evictions",
          "fast-region lines written back to the main array")),
      stat_write_latency_(stat_group_.addDistribution(
          "write_latency", "write request latency in cycles (log2)"))
{
    wlc_assert(params_.banks > 0);
    wlc_assert(params_.wear_line_bytes > 0);

    const std::uint64_t wear_lines =
        params_.size_bytes / params_.wear_line_bytes;
    if (params_.track_wear) {
        wlc_assert(params_.size_bytes % params_.wear_line_bytes == 0,
                   "NVM size must be a whole number of wear lines");
        wear_ = std::make_unique<WearTracker>(
            wear_lines, params_.endurance_writes);
    }
    if (params_.wear_scheme == NvmWearScheme::Rotate) {
        wlc_assert(params_.size_bytes % params_.wear_line_bytes == 0,
                   "NVM size must be a whole number of wear lines");
        rotator_ = std::make_unique<WearRotator>(
            wear_lines, params_.wear_line_bytes,
            params_.rotate_period_writes);
    }
    if (params_.hybrid_lines > 0) {
        hybrid_ = std::make_unique<HybridRegion>(
            params_.hybrid_lines, params_.hybrid_promote_writes);
    }
}

void
NvmMemory::checkRange(Addr addr, unsigned bytes) const
{
    wlc_assert(bytes > 0);
    wlc_assert(addr + bytes <= data_.size(),
               "NVM access out of range: addr=0x%llx size=%u",
               static_cast<unsigned long long>(addr), bytes);
}

Addr
NvmMemory::timingAddr(Addr addr) const
{
    return rotator_ ? rotator_->map(addr) : addr;
}

void
NvmMemory::recordWear(Addr addr, unsigned bytes)
{
    if (!wear_)
        return;
    const std::uint64_t first = addr / params_.wear_line_bytes;
    const std::uint64_t last =
        (addr + bytes - 1) / params_.wear_line_bytes;
    for (std::uint64_t line = first; line <= last; ++line)
        wear_->recordLine(rotator_ ? rotator_->mapLine(line) : line);
}

void
NvmMemory::accountTiming(const NvmAccessTiming &t, Addr addr,
                         Cycle now)
{
    if (t.bank_conflict) {
        ++stat_bank_conflicts_;
        WLC_TIMELINE(tl_, BankConflict, now, "nvm", addr,
                     params_.bankOf(timingAddr(addr)));
    }
    if (t.queue_wait > 0) {
        stat_queue_stall_cycles_ += static_cast<double>(t.queue_wait);
        WLC_TIMELINE(tl_, QueueStall, now, "nvm",
                     params_.bankOf(timingAddr(addr)), t.queue_wait);
    }
    if (t.turnaround_wait > 0)
        stat_turnaround_stall_cycles_ +=
            static_cast<double>(t.turnaround_wait);
    if (params_.model == NvmModel::BankedQueue) {
        if (t.row_hit)
            ++stat_row_hits_;
        else
            ++stat_row_misses_;
    }
}

void
NvmMemory::resetChannel()
{
    model_->reset();
    fast_busy_until_ = 0;
}

NvmAccessResult
NvmMemory::read(Addr addr, unsigned bytes, Cycle now, void *out)
{
    checkRange(addr, bytes);
    const Addr taddr = timingAddr(addr);

    // Resident hot lines are served by the STT fast region on its
    // own port — no channel arbitration, no main-array energy.
    if (hybrid_ &&
        hybrid_->onRead(taddr / params_.wear_line_bytes)) {
        const Cycle start = std::max(now, fast_busy_until_);
        const Cycle ready = start + params_.hybrid_access_latency;
        fast_busy_until_ = ready;
        if (out)
            std::memcpy(out, data_.data() + addr, bytes);
        ++stat_reads_;
        ++stat_fast_reads_;
        stat_bytes_read_ += bytes;
        if (meter_)
            meter_->add(energy::EnergyCategory::MemRead,
                        params_.hybrid_read_energy_per_byte * bytes);
        WLC_TIMELINE(tl_, NvmRead, now, "nvm", addr, bytes);
        return { start, ready };
    }

    const NvmAccessTiming t = model_->access(taddr, bytes, now,
                                             /*is_write=*/false);
    accountTiming(t, addr, now);
    if (out)
        std::memcpy(out, data_.data() + addr, bytes);
    ++stat_reads_;
    stat_bytes_read_ += bytes;
    if (meter_) {
        // The legacy model charges activation on every access; the
        // banked model only on a row miss.
        const double e =
            params_.model == NvmModel::SingleCursor
                ? params_.readEnergy(bytes)
                : (t.row_hit ? 0.0 : params_.activate_energy) +
                      params_.read_energy_per_byte * bytes;
        meter_->add(energy::EnergyCategory::MemRead, e);
    }
    WLC_TIMELINE(tl_, NvmRead, now, "nvm", addr, bytes);
    return { t.start, t.ready };
}

NvmAccessResult
NvmMemory::write(Addr addr, unsigned bytes, const void *data, Cycle now)
{
    checkRange(addr, bytes);
    wlc_assert(data != nullptr);
    const Addr taddr = timingAddr(addr);

    if (hybrid_) {
        const HybridRegion::WriteOutcome o =
            hybrid_->onWrite(taddr / params_.wear_line_bytes);
        if (o.evicted) {
            // LRU write-back: one full line of main-array write
            // energy and wear, migrated in the background.
            ++stat_evictions_;
            if (meter_)
                meter_->add(
                    energy::EnergyCategory::MemWrite,
                    params_.writeEnergy(params_.wear_line_bytes));
            if (wear_)
                wear_->recordLine(o.evicted_line);
        }
        if (o.promoted) {
            // Line fill: read the line out of the main array once.
            ++stat_promotions_;
            if (meter_)
                meter_->add(
                    energy::EnergyCategory::MemRead,
                    params_.readEnergy(params_.wear_line_bytes));
        }
        if (o.fast) {
            const Cycle start = std::max(now, fast_busy_until_);
            const Cycle ready = start + params_.hybrid_access_latency;
            fast_busy_until_ = ready;
            std::memcpy(data_.data() + addr, data, bytes);
            touchPages(addr, bytes);
            ++stat_writes_;
            ++stat_fast_writes_;
            stat_bytes_written_ += bytes;
            if (meter_)
                meter_->add(
                    energy::EnergyCategory::MemWrite,
                    params_.hybrid_write_energy_per_byte * bytes);
            stat_write_latency_.sample(
                static_cast<double>(ready - now));
            WLC_TIMELINE(tl_, NvmWrite, now, "nvm", addr, bytes);
            return { start, ready };
        }
    }

    const NvmAccessTiming t = model_->access(taddr, bytes, now,
                                             /*is_write=*/true);
    accountTiming(t, addr, now);
    std::memcpy(data_.data() + addr, data, bytes);
    touchPages(addr, bytes);
    recordWear(addr, bytes);
    if (rotator_)
        rotator_->onWrite();
    ++stat_writes_;
    stat_bytes_written_ += bytes;
    if (meter_) {
        const double pulses =
            (1.0 + params_.write_verify_retries) *
            params_.write_energy_per_byte * bytes;
        const double e =
            params_.model == NvmModel::SingleCursor
                ? params_.activate_energy + pulses
                : (t.row_hit ? 0.0 : params_.activate_energy) +
                      pulses;
        meter_->add(energy::EnergyCategory::MemWrite, e);
    }
    stat_write_latency_.sample(static_cast<double>(t.ready - now));
    WLC_TIMELINE(tl_, NvmWrite, now, "nvm", addr, bytes);
    return { t.start, t.ready };
}

void
NvmMemory::peek(Addr addr, unsigned bytes, void *out) const
{
    checkRange(addr, bytes);
    wlc_assert(out != nullptr);
    std::memcpy(out, data_.data() + addr, bytes);
}

void
NvmMemory::poke(Addr addr, unsigned bytes, const void *data)
{
    checkRange(addr, bytes);
    wlc_assert(data != nullptr);
    std::memcpy(data_.data() + addr, data, bytes);
    touchPages(addr, bytes);
}

std::uint64_t
NvmMemory::peekInt(Addr addr, unsigned bytes) const
{
    wlc_assert(bytes <= 8);
    std::uint64_t v = 0;
    peek(addr, bytes, &v);
    return v;
}

std::vector<std::uint8_t>
NvmMemory::snapshotRange(Addr addr, std::size_t bytes) const
{
    wlc_assert(addr + bytes <= data_.size(),
               "NVM snapshot out of range: addr=0x%llx size=%zu",
               static_cast<unsigned long long>(addr), bytes);
    return { data_.data() + addr, data_.data() + addr + bytes };
}

std::uint64_t
NvmMemory::numReads() const
{
    return static_cast<std::uint64_t>(stat_reads_.value());
}

std::uint64_t
NvmMemory::numWrites() const
{
    return static_cast<std::uint64_t>(stat_writes_.value());
}

std::uint64_t
NvmMemory::bytesWritten() const
{
    return static_cast<std::uint64_t>(stat_bytes_written_.value());
}

std::uint64_t
NvmMemory::queueStallCycles() const
{
    return static_cast<std::uint64_t>(
        stat_queue_stall_cycles_.value());
}

std::uint64_t
NvmMemory::rowHits() const
{
    return static_cast<std::uint64_t>(stat_row_hits_.value());
}

std::uint64_t
NvmMemory::rowMisses() const
{
    return static_cast<std::uint64_t>(stat_row_misses_.value());
}

namespace {

/** Upper edge of the first log2 bucket covering 99% of @p d's samples. */
double
p99UpperEdge(const stats::Distribution &d)
{
    const std::uint64_t count = d.count();
    if (count == 0)
        return 0.0;
    // Ceil(0.99 * count) without floating-point drift.
    const std::uint64_t need = (count * 99 + 99) / 100;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < stats::Distribution::kNumBuckets;
         ++i) {
        cum += d.bucket(i);
        if (cum >= need)
            return std::ldexp(1.0, static_cast<int>(i));
    }
    return d.max();
}

} // anonymous namespace

NvmDeviceStats
NvmMemory::deviceStats() const
{
    NvmDeviceStats s;
    s.bank_conflicts =
        static_cast<std::uint64_t>(stat_bank_conflicts_.value());
    s.queue_stall_cycles = queueStallCycles();
    s.turnaround_stall_cycles = static_cast<std::uint64_t>(
        stat_turnaround_stall_cycles_.value());
    s.lifetime_headroom = params_.endurance_writes;
    if (wear_) {
        s.wear_max = wear_->maxWear();
        s.wear_lines_touched = wear_->linesTouched();
        s.lifetime_headroom = wear_->minHeadroom();
    }
    s.write_p99_latency = p99UpperEdge(stat_write_latency_);
    s.row_hits = rowHits();
    s.row_misses = rowMisses();
    return s;
}

void
NvmMemory::resetStats()
{
    stat_group_.resetAll();
}

void
NvmMemory::touchPages(Addr addr, unsigned bytes)
{
    const std::uint64_t first = addr / kJournalPageBytes;
    const std::uint64_t last = (addr + bytes - 1) / kJournalPageBytes;
    for (std::uint64_t p = first; p <= last; ++p)
        touched_pages_.insert(p);
}

void
NvmMemory::clearJournal()
{
    touched_pages_.clear();
}

void
NvmMemory::ioState(StateIo &io)
{
    io.section("NVM ");
    model_->ioState(io);
    io.u64(fast_busy_until_);
    stat_group_.ioState(io);
    // Wear/rotation/hybrid presence is a pure function of the
    // configuration, which the snapshot compat key already pins.
    if (wear_)
        wear_->ioState(io);
    if (rotator_)
        rotator_->ioState(io);
    if (hybrid_)
        hybrid_->ioState(io);

    io.sorted(touched_pages_, [&](std::uint64_t &p) {
        io.u64(p);
        const std::size_t off = p * kJournalPageBytes;
        std::uint64_t n =
            io.loading() ? 0
                         : std::min(kJournalPageBytes, data_.size() - off);
        io.u64(n);
        wlc_assert(off + n <= data_.size(),
                   "snapshot journal page out of range");
        io.bytes(data_.data() + off, n);
    });
}

} // namespace mem
} // namespace wlcache
