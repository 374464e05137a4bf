#include "nvp/system.hh"

#include <algorithm>

#include "cache/no_cache.hh"
#include "cache/nv_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/vcache_wt.hh"
#include "cache/wt_buffered_cache.hh"
#include "core/wl_log_cache.hh"
#include "cpu/register_file.hh"
#include "nvp/schema.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"
#include "util/strings.hh"

#include <ostream>
#include <sstream>

namespace wlcache {
namespace nvp {

SystemSim::SystemSim(const SystemConfig &cfg,
                     const workloads::BuiltTrace &trace,
                     const energy::PowerTrace &power, bool infinite_power)
    : cfg_(cfg), trace_(trace),
      nvm_(std::make_unique<mem::NvmMemory>(cfg.nvm, &meter_)),
      cap_(cfg.platform.capacitance_f, cfg.platform.vmin,
           cfg.platform.vmax),
      harvester_(power, cfg.platform.harvest_efficiency, infinite_power)
{
    // Load the program's initial data image into NVM. The write
    // journal starts empty afterwards: every system built from the
    // same trace shares this baseline, so snapshots only need the
    // pages a run actually mutated.
    if (!trace_.initial_image.empty())
        nvm_->poke(trace_.image_base,
                   static_cast<unsigned>(trace_.initial_image.size()),
                   trace_.initial_image.data());
    nvm_->clearJournal();

    buildCaches();

    cpu::ICacheStreamParams icp;
    icp.code_bytes = trace_.info ? trace_.info->code_kb << 10
                                 : 12u << 10;
    icp.seed = trace_.seed ^
        std::hash<std::string>{}(trace_.name);
    cpu::ICacheStream stream(icp);
    core_ = std::make_unique<cpu::InOrderCore>(cfg_.core, *icache_,
                                               *dcache_, stream,
                                               &meter_);
    region_events_ = dcache_->regionEvents();
    if (region_events_)
        recovery_.stream = core_->streamSnapshot();

    if (cfg_.validate_consistency && !trace_.initial_image.empty())
        expected_.write(trace_.image_base, trace_.initial_image.data(),
                        trace_.initial_image.size());

    nvff_ = std::make_unique<NvffStore>(
        cpu::RegisterFile::sizeBytes() + dcache_->nvffBytes(),
        cfg_.platform.nvff_energy_per_byte,
        cfg_.platform.nvff_restore_energy_per_byte, &meter_);

    const double leak_watts = cfg_.core.leakage_watts +
        dcache_->leakageWatts() + icache_->leakageWatts();
    leak_aj_per_cycle_ = energy::toAttojoules(leak_watts * kSecondsPerCycle);
    tl_ = cfg_.timeline;
    attachTimeline();
    applyThresholds(dcache_->dirtyLineBound());
}

const std::string &
SystemSim::snapshotKey() const
{
    if (!snapshot_key_.empty())
        return snapshot_key_;
    // Every configuration knob the captured state depends on, plus
    // the trace and power identity.
    std::ostringstream ks;
    dumpConfigKey(ks, resumeNeutral(cfg_));
    ks << "trace=" << trace_.name << '\n'
       << "trace_seed=" << trace_.seed << '\n'
       << "trace_events=" << trace_.events.size() << '\n'
       << "infinite_power=" << (harvester_.infinite() ? 1 : 0) << '\n'
       << "power=" << harvester_.trace().identity() << '\n'
       << "snapshot_format=" << SystemSnapshot::kFormatVersion << '\n';
    const std::string key_text = ks.str();
    snapshot_key_ = util::fnv1a128Hex(key_text.data(), key_text.size());
    return snapshot_key_;
}

void
SystemSim::attachTimeline()
{
    nvm_->setTimeline(tl_);
    dcache_->setTimeline(tl_);
    icache_->setTimeline(tl_);
    core_->setTimeline(tl_);
}

SystemSim::~SystemSim() = default;

void
SystemSim::buildCaches()
{
    std::unique_ptr<core::WLCache> wl;  // WL family, wired below
    switch (cfg_.design) {
      case DesignKind::NoCache:
        dcache_ = std::make_unique<cache::NoCache>(*nvm_, &meter_);
        break;
      case DesignKind::VCacheWT:
        dcache_ = std::make_unique<cache::VCacheWT>(cfg_.dcache, *nvm_,
                                                    &meter_);
        break;
      case DesignKind::NVCacheWB:
        dcache_ = std::make_unique<cache::NVCacheWB>(cfg_.dcache, *nvm_,
                                                     &meter_);
        break;
      case DesignKind::NvsramWB:
        dcache_ = std::make_unique<cache::NvsramCacheWB>(
            cfg_.dcache, cfg_.nvsram, *nvm_, &meter_);
        break;
      case DesignKind::NvsramFull: {
        cache::NvsramParams full = cfg_.nvsram;
        full.backup_full = true;
        dcache_ = std::make_unique<cache::NvsramCacheWB>(
            cfg_.dcache, full, *nvm_, &meter_);
        break;
      }
      case DesignKind::NvsramPractical:
        dcache_ = std::make_unique<cache::NvsramPracticalCache>(
            cfg_.dcache, cache::nvCacheParams(),
            cfg_.nvsram_practical, *nvm_, &meter_);
        break;
      case DesignKind::WtBuffered:
        dcache_ = std::make_unique<cache::WtBufferedCache>(
            cfg_.dcache, cfg_.wt_buffer, *nvm_, &meter_);
        break;
      case DesignKind::Replay:
        dcache_ = std::make_unique<cache::ReplayCacheModel>(
            cfg_.dcache, cfg_.replay, *nvm_, &meter_);
        break;
      case DesignKind::WL:
        wl = std::make_unique<core::WLCache>(cfg_.dcache, cfg_.wl, *nvm_,
                                             &meter_, cfg_.adaptive);
        break;
      case DesignKind::WLLog: {
        auto log = std::make_unique<core::WlLogCache>(
            cfg_.dcache, cfg_.wl, cfg_.log, *nvm_, &meter_, cfg_.adaptive);
        // The journal region is carved from the top of NVM: the
        // workload image must fit entirely below it.
        const Addr region_start = log->journal().regionStart();
        const std::size_t image_size =
            std::max(trace_.initial_image.size(),
                     trace_.final_image.size());
        if (trace_.image_base + image_size > region_start) {
            fatal("WL-Log journal region [0x%llx..) overlaps the "
                  "workload image [0x%llx, 0x%llx): shrink "
                  "log.region_lines or grow nvm.size_bytes",
                  static_cast<unsigned long long>(region_start),
                  static_cast<unsigned long long>(trace_.image_base),
                  static_cast<unsigned long long>(trace_.image_base +
                                                  image_size));
        }
        wl = std::move(log);
        break;
      }
    }
    if (wl) {
        if (cfg_.wl_dynamic)
            wl->enableDynamicAdaptation(
                [this](unsigned bound, double extra_j) {
                    return tryRaiseReserve(bound, extra_j);
                });
        dcache_ = std::move(wl);
    }
    // The restore cost is read by WarmRestore I-caches only.
    icache_ = std::make_unique<cache::InstrCache>(
        cfg_.icache, icacheKind(cfg_.design), *nvm_, &meter_,
        cfg_.nvsram.restore_line_energy, cfg_.nvsram.restore_line_latency);
}

double
SystemSim::reserveNeededJ() const
{
    return dcache_->checkpointEnergyBound() +
        nvff_->capacity() * cfg_.platform.nvff_energy_per_byte;
}

double
SystemSim::checkpointReserveJ() const
{
    const double vmin = cfg_.platform.vmin;
    return 0.5 * cfg_.platform.capacitance_f *
        (vbackup_now_ * vbackup_now_ - vmin * vmin);
}

SystemSim::Thresholds
SystemSim::thresholds(unsigned bound) const
{
    const PlatformParams &p = cfg_.platform;
    switch (thresholdRule(cfg_.design)) {
      case ThresholdRule::Preset:
        return { p.vbackup, p.von };
      case ThresholdRule::WorstCase:
        // NVSRAM sizes its threshold for the worst-case all-dirty
        // backup (paper §2.3.3): at the default 8 KB / 1 uF this
        // lands on Table 2's 3.1 V, and it scales with the array.
        return { std::min(p.vmax,
                          std::max(2.85, cap_.voltageForEnergyAbove(
                                             p.vmin,
                                             1.25 * reserveNeededJ()))),
                 p.von };
      case ThresholdRule::Maxline:
        break;
    }
    // WL schedule (§4, §5.5): the base plus one step per line of the
    // bound above the anchor, capped at Vmax.
    const double steps = static_cast<double>(
        bound > p.wl_threshold_anchor ? bound - p.wl_threshold_anchor : 0);
    return { std::min(p.wl_vbackup_base + p.wl_vbackup_step * steps, p.vmax),
             std::min(p.wl_von_base + p.wl_von_step * steps, p.vmax) };
}

void
SystemSim::applyThresholds(unsigned bound)
{
    const Thresholds th = thresholds(bound);
    vbackup_now_ = th.vbackup;
    von_now_ = th.von;
    backup_level_aj_ = cap_.energyAjForVoltage(vbackup_now_);

    WLC_TIMELINE(tl_, CapThreshold, now_, "system", 0, 0, vbackup_now_);
    WLC_TIMELINE(tl_, CapThreshold, now_, "system", 1, 0, von_now_);

    // Sanity: the reserved slice must cover the worst-case JIT
    // checkpoint. With voltage-divider thresholds this can become
    // infeasible for tiny capacitors (Figure 10b's left edge).
    const double reserve = checkpointReserveJ();
    if (reserve < reserveNeededJ() && !warned_reserve_) {
        warned_reserve_ = true;
        warn("%s: checkpoint reserve %.3g J below worst-case need "
             "%.3g J (capacitor too small for these thresholds)",
             designKindName(cfg_.design), reserve, reserveNeededJ());
    }
}

bool
SystemSim::tryRaiseReserve(unsigned bound, double extra_j)
{
    if (harvester_.infinite())
        return true;
    const double v = thresholds(bound).vbackup;
    const double level = 0.5 * cfg_.platform.capacitance_f * v * v;
    if (cap_.storedEnergy() <= level + 4.0 * extra_j)
        return false;
    applyThresholds(bound);
    return true;
}

void
SystemSim::accountCycles(Cycle span)
{
    // Reference path: one leakage add and one harvester step per
    // cycle. Integer attojoules make the sum exactly the batched form
    // in accountPassage() — the equivalence suite holds the two
    // together.
    for (Cycle i = 0; i < span; ++i) {
        meter_.addAj(energy::EnergyCategory::Leakage, leak_aj_per_cycle_);
        harvester_.advanceCycles(1, cap_);
    }
}

void
SystemSim::beginInterval()
{
    interval_start_cycle_ = now_;
    interval_instret_base_ = core_->instructionsRetired();
    interval_nvm_writes_base_ = nvm_->numWrites();
    interval_cleans_base_ = dcache_->cleaningsIssued();
    interval_harvest_base_ = harvester_.totalHarvested();
    dcache_->resetDirtyHighWater();
}

void
SystemSim::endInterval(double checkpoint_j)
{
    if (res_.intervals.size() <
        static_cast<std::size_t>(cfg_.max_interval_rollups)) {
        telemetry::IntervalRollup r;
        r.index = interval_index_;
        r.start_cycle = interval_start_cycle_;
        r.end_cycle = now_;
        r.instructions =
            core_->instructionsRetired() - interval_instret_base_;
        r.nvm_writes = nvm_->numWrites() - interval_nvm_writes_base_;
        r.cleans = dcache_->cleaningsIssued() - interval_cleans_base_;
        r.dirty_high_water = dcache_->dirtyHighWater();
        r.checkpoint_j = checkpoint_j;
        r.harvested_j =
            harvester_.totalHarvested() - interval_harvest_base_;
        res_.intervals.push_back(r);
    } else {
        ++res_.intervals_dropped;
    }
    ++interval_index_;
}

void
SystemSim::collectStatsJson()
{
    std::ostringstream ss;
    ss << "{\"dcache\":";
    dcache_->statGroup().dumpJson(ss);
    ss << ",\"icache\":";
    icache_->statGroup().dumpJson(ss);
    ss << ",\"core\":";
    core_->statGroup().dumpJson(ss);
    ss << ",\"nvm\":";
    nvm_->statGroup().dumpJson(ss);
    ss << '}';
    res_.stats_json = ss.str();
}

void
SystemSim::recordDivergence(const char *kind, std::uint64_t addr)
{
    res_.divergence = true;
    if (res_.has_first_divergence)
        return;
    res_.has_first_divergence = true;
    res_.first_divergence_kind = kind;
    res_.first_divergence_addr = addr;
    res_.first_divergence_cycle = now_;
    res_.first_divergence_outage = res_.outages;
}

void
SystemSim::checkConsistency()
{
    ++res_.consistency_checks;
    mem::ByteImage overlay;
    dcache_->collectPersistentOverlay(overlay);
    // A region design rewrites its in-flight region on re-execution:
    // skip every byte the region's stores touched.
    mem::ByteImage region_stores;
    if (region_events_)
        for (std::size_t i = recovery_.idx; i < idx_; ++i) {
            const MemAccess &ev = trace_.events[i];
            if (ev.op == MemOp::Store)
                region_stores.write(ev.addr, &ev.value, ev.size);
        }
    if (const auto addr =
            expected_.firstMismatch(*nvm_, overlay, region_stores)) {
        ++res_.consistency_violations;
        recordDivergence("nvm", *addr);
    }
}

void
SystemSim::powerFail()
{
    ++res_.outages;
    WLC_TIMELINE(tl_, OutageBegin, now_, "system", res_.outages, 0,
                 cap_.voltage());
    const double ckpt_e0 = meter_.total();

    // JIT checkpoint: the design persists its bounded state, then the
    // registers and the design's own NVFF bytes (WL-Cache: its
    // thresholds) capture into their NVFFs in parallel.
    Cycle ckpt_done = cfg_.inject_checkpoint_skip
        ? now_ : dcache_->checkpoint(now_);
    const auto regs = core_->regs().snapshot();
    last_ckpt_regs_ = regs;      // what a correct restore must produce
    has_ckpt_regs_ = true;
    if (!cfg_.inject_register_skip)
        ckpt_done += nvff_->checkpoint(
            regs.data(), cpu::RegisterFile::sizeBytes());
    std::vector<std::uint8_t> design_bytes(dcache_->nvffBytes());
    if (const unsigned n = dcache_->nvffImage(design_bytes.data()))
        nvff_->checkpoint(design_bytes.data(), n,
                          cpu::RegisterFile::sizeBytes());
    // Checkpoint-span leakage stays event-level in BOTH step modes:
    // the harvester clock is deliberately decoupled while the backup
    // runs (pre-existing modeling choice), so there is no per-cycle
    // state here for Percycle to step through.
    if (ckpt_done > now_)
        meter_.addAj(energy::EnergyCategory::Leakage,
                     energy::scaleAttojoules(leak_aj_per_cycle_,
                                             ckpt_done - now_));
    now_ = ckpt_done;
    drawConsumedEnergy();
    if (cap_.voltage() < cfg_.platform.vmin - 1e-6)
        ++res_.reserve_violations;
    endInterval(meter_.total() - ckpt_e0);

    const double t_on = cyclesToSeconds(now_ - boot_cycle_);

    // Volatile state is gone.
    dcache_->powerLoss();
    icache_->powerLoss();

    if (cfg_.validate_consistency)
        checkConsistency();

    // A region design rolls back to its recovery point.
    if (region_events_) {
        res_.replayed_events += idx_ - recovery_.idx;
        idx_ = recovery_.idx;
        core_->restoreStream(*recovery_.stream);
    }

    // The design reconfigures for the next interval before the system
    // sleeps, so the comparator charges toward the right Von (§4).
    if (dcache_->endPowerInterval(t_on, now_))
        applyThresholds(dcache_->dirtyLineBound());

    // Power-off: the capacitor keeps whatever the checkpoint did not
    // consume and recharges from there to Von.
    const double off =
        harvester_.chargeUntil(cap_, von_now_, 1.0e4, cfg_.step_mode);
    res_.off_seconds += off;
    if (cap_.voltage() < von_now_ * (1.0 - 1e-7)) {
        environment_dead_ = true;  // chargeUntil gave up
        return;
    }
    WLC_TIMELINE(tl_, OutageEnd, now_, "system", res_.outages, 0, off);
    nvm_->resetChannel();

    bootAndRestore();
}

void
SystemSim::bootAndRestore()
{
    const Cycle boot_start = now_;
    now_ += cfg_.platform.reboot_latency_cycles;
    Cycle t = dcache_->powerRestore(now_);
    t = icache_->powerRestore(t);
    std::array<std::uint32_t, cpu::RegisterFile::kNumRegs> regs{};
    t += nvff_->restore(regs.data(), cpu::RegisterFile::sizeBytes());
    core_->regs().restore(regs);
    WLC_TIMELINE(tl_, Restore, t, "nvff",
                 cpu::RegisterFile::sizeBytes(), t - boot_start);

    // Register-file differential: whatever the NVFF bank hands back
    // must equal the snapshot taken at the failure. Only this check
    // can see a lost register checkpoint — the NVM oracle cannot.
    if (has_ckpt_regs_) {
        for (unsigned i = 0; i < cpu::RegisterFile::kNumRegs; ++i) {
            if (regs[i] != last_ckpt_regs_[i]) {
                ++res_.register_restore_mismatches;
                recordDivergence("register", i);
            }
        }
    }
    // Boot/restore-span leakage: event-level in both modes, like the
    // checkpoint span above.
    meter_.addAj(energy::EnergyCategory::Leakage,
                 energy::scaleAttojoules(leak_aj_per_cycle_,
                                         t - boot_start));
    now_ = t;
    drawConsumedEnergy();
    boot_cycle_ = now_;
    beginInterval();
}

bool
SystemSim::finalCheck()
{
    const std::vector<std::uint8_t> &want = trace_.final_image;
    const std::vector<std::uint8_t> got =
        nvm_->snapshotRange(trace_.image_base, want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    if (diff.first == got.end())
        return true;
    recordDivergence("final", trace_.image_base + (diff.first - got.begin()));
    return false;
}

void
SystemSim::computeFinalDigest()
{
    // Digest the image region as the *persistent* state sees it: raw
    // NVM with the design's surviving overlay (e.g.\ NV cache lines)
    // applied on top. An interrupted run digests whatever state a
    // next boot would observe.
    const std::size_t size = std::max(trace_.initial_image.size(),
                                      trace_.final_image.size());
    if (size == 0 || trace_.image_base + size > nvm_->sizeBytes()) {
        res_.final_state_digest = util::fnv1a128Hex(nullptr, 0);
        return;
    }
    std::vector<std::uint8_t> img =
        nvm_->snapshotRange(trace_.image_base, size);
    mem::ByteImage overlay;
    dcache_->collectPersistentOverlay(overlay);
    overlay.applyTo(trace_.image_base, img.data(), img.size());
    res_.final_state_digest = util::fnv1a128Hex(img.data(), img.size());
}

namespace {

/** Save or restore one field of a schema-table record. */
void
ioField(StateIo &io, const Field &f, void *record)
{
    switch (f.kind) {
      case FieldKind::Unsigned:
        return io.u32(f.ref<unsigned>(record));
      case FieldKind::U64:
        return io.u64(f.ref<std::uint64_t>(record));
      case FieldKind::Double:
        return io.f64(f.ref<double>(record));
      case FieldKind::Bool:
        return io.b(f.ref<bool>(record));
      case FieldKind::String:
      case FieldKind::JsonText:
        return io.str(f.ref<std::string>(record));
      case FieldKind::Enum: {
        auto index = static_cast<std::uint8_t>(f.codec->index(f.at(record)));
        io.u8(index);
        if (io.loading())
            f.codec->setIndex(f.at(record), index);
        return;
      }
      case FieldKind::Meter:
        return f.ref<energy::EnergyMeter>(record).ioState(io);
      case FieldKind::Rollups:
        return io.seq(f.ref<std::vector<telemetry::IntervalRollup>>(record),
                      [&io](telemetry::IntervalRollup &iv) {
                          for (const Field &rf : rollupFields())
                              ioField(io, rf, &iv);
                      });
      case FieldKind::U64List:
        break;
    }
    panic("field '%s' has no snapshot encoding", f.key.c_str());
}

} // namespace

void
SystemSim::ioState(StateIo &io, Cycle cycle, std::uint64_t event_index)
{
    io.section("SYSH");
    std::uint32_t version = SystemSnapshot::kFormatVersion;
    io.u32(version);
    wlc_assert(version == SystemSnapshot::kFormatVersion,
               "unsupported snapshot format version %u", version);
    io.check(cycle, "snapshot header cycle vs metadata");
    io.check(event_index, "snapshot header event index vs metadata");
    io.section("RES ");
    for (const Field &f : resultFields())
        ioField(io, f, &res_);
    meter_.ioState(io);
    cap_.ioState(io);
    harvester_.ioState(io);
    nvm_->ioState(io);
    dcache_->ioState(io);
    icache_->ioState(io);
    core_->ioState(io);
    nvff_->ioState(io);
    io.section("CHK ");
    expected_.ioState(io);
    io.section("SYS2");
    io.u64(now_);
    io.u64(boot_cycle_);
    io.u64(last_meter_aj_);
    io.u64(backup_level_aj_);
    io.f64(vbackup_now_);
    io.f64(von_now_);
    io.b(environment_dead_);
    io.b(warned_reserve_);
    io.u64(interval_index_);
    io.u64(interval_start_cycle_);
    io.u64(interval_instret_base_);
    io.u64(interval_nvm_writes_base_);
    io.u64(interval_cleans_base_);
    io.f64(interval_harvest_base_);
    io.u64(forced_idx_);
    for (std::uint32_t &v : last_ckpt_regs_)
        io.u32(v);
    io.b(has_ckpt_regs_);
    io.u64(idx_);
    if (region_events_) {
        io.section("RGN ");
        io.u64(recovery_.idx);
        recovery_.stream->ioState(io);
    }
}

SystemSnapshot
SystemSim::takeSnapshot() const
{
    SnapshotWriter w;
    StateIo::save(*this, w, now_, idx_);

    SystemSnapshot snap;
    snap.compat_key = snapshotKey();
    snap.cycle = now_;
    snap.event_index = idx_;
    snap.state = w.take();
    WLC_TIMELINE(tl_, SnapshotTaken, now_, "system", idx_,
                 snap.state.size());
    return snap;
}

void
SystemSim::restoreSnapshot(const SystemSnapshot &snap)
{
    wlc_assert(snap.valid(), "cannot restore an empty snapshot");
    wlc_assert(snap.compat_key == snapshotKey(),
               "snapshot resume-compatibility key mismatch "
               "(%s vs this system's %s)",
               snap.compat_key.c_str(), snapshotKey().c_str());
    SnapshotReader r(snap.state);
    StateIo::load(*this, r, snap.cycle, snap.event_index);
    wlc_assert(r.atEnd(), "trailing bytes after snapshot restore");
}

RunResult
SystemSim::run(const RunOptions &opts)
{
    if (opts.resume) {
        restoreSnapshot(*opts.resume);
        WLC_TIMELINE(tl_, SnapshotResume, now_, "system", idx_,
                     res_.outages);
    } else {
        res_ = RunResult{};
        res_.workload = trace_.name;
        res_.design = cfg_.design;
        res_.trace_events = trace_.events.size();

        // Initial charge-up to the restore voltage.
        if (harvester_.infinite()) {
            cap_.setVoltage(cfg_.platform.vmax);
        } else {
            res_.off_seconds += harvester_.chargeUntil(
                cap_, von_now_, 1.0e4, cfg_.step_mode);
            if (cap_.voltage() < von_now_ * (1.0 - 1e-7)) {
                res_.completed = false;
                return res_;
            }
        }
        boot_cycle_ = now_ = 0;
        idx_ = 0;
        forced_idx_ = 0;
        has_ckpt_regs_ = false;
        interval_index_ = 0;
        beginInterval();
        recovery_.idx = 0;
        if (region_events_)
            recovery_.stream = core_->streamSnapshot();
    }

    const std::size_t n = trace_.events.size();
    const bool failures_possible = !harvester_.infinite();
    Cycle pause_at = opts.on_pause ? opts.pause_at : RunOptions::kNever;

    while (idx_ < n) {
        // An external cut finalizes the run as interrupted
        // (completed stays false).
        if (opts.cut_request &&
            opts.cut_request->load(std::memory_order_relaxed))
            break;
        if (now_ >= pause_at)
            pause_at = opts.on_pause(*this);
        const MemAccess &ev = trace_.events[idx_];
        std::uint64_t load_val = 0;
        const Cycle end = core_->executeEvent(ev, now_, &load_val);

        // A re-executed region may legitimately load other values.
        if (cfg_.check_load_values && ev.op == MemOp::Load &&
            !region_events_) {
            // Mask to the access width before comparing.
            const std::uint64_t mask = ev.size >= 8
                ? ~0ull : ((1ull << (8 * ev.size)) - 1);
            if ((load_val & mask) != (ev.value & mask)) {
                ++res_.load_value_mismatches;
                recordDivergence("load", ev.addr);
            }
        }
        if (cfg_.validate_consistency && ev.op == MemOp::Store)
            expected_.write(ev.addr, &ev.value, ev.size);  // LE host

        accountPassage(now_, end);
        now_ = end;
        drawConsumedEnergy();
        ++idx_;

        // Region commit; the recovery point moves past the region.
        if (region_events_ && idx_ - recovery_.idx >= region_events_) {
            const Cycle t = dcache_->regionBoundary(now_);
            accountPassage(now_, t);
            now_ = t;
            drawConsumedEnergy();
            recovery_.idx = idx_;
            recovery_.stream = core_->streamSnapshot();
        }

        // Power failure: either the capacitor drained to Vbackup or a
        // forced-outage schedule point was reached. Forced points
        // fire exactly once each, at the first event boundary at or
        // after the requested cycle — they work under infinite power
        // too, which is how verification campaigns make the forced
        // point the only outage of a run.
        // The outage comparator works on quantized energies, so both
        // step modes see the threshold crossing at the same event.
        bool want_fail = failures_possible &&
            cap_.storedAj() <= backup_level_aj_;
        if (forced_idx_ < cfg_.forced_outage_cycles.size() &&
            now_ >= cfg_.forced_outage_cycles[forced_idx_]) {
            ++forced_idx_;
            ++res_.forced_outages;
            want_fail = true;
        }
        if (want_fail) {
            powerFail();
            if (res_.outages >= cfg_.max_outages ||
                environment_dead_) {
                res_.completed = false;
                break;
            }
        }
    }

    if (idx_ >= n) {
        // Graceful completion: flush all dirty state.
        const Cycle t = dcache_->drainAndFlush(now_);
        accountPassage(now_, t);
        now_ = t;
        drawConsumedEnergy();
        endInterval(0.0);
        res_.completed = true;
        res_.final_state_correct = finalCheck();
    }
    computeFinalDigest();

    // --- Collect statistics ---
    res_.on_cycles = now_;
    res_.total_seconds = cyclesToSeconds(now_) + res_.off_seconds;
    res_.instructions = core_->instructionsRetired();
    res_.meter = meter_;
    res_.nvm_writes = nvm_->numWrites();
    res_.nvm_reads = nvm_->numReads();
    res_.nvm_bytes_written = nvm_->bytesWritten();
    res_.nvm_device = nvm_->deviceStats();
    dcache_->reportRun(res_.outages, res_.wl, res_.nvm_log);
    collectStatsJson();

    // Every ratio below guards its zero denominator, and run_json
    // clamps any non-finite value it writes.
    const auto &cs = dcache_->stats();
    const double loads = std::max(1.0, cs.loads.value());
    const double stores = std::max(1.0, cs.stores.value());
    res_.dcache_load_hit_rate = cs.load_hits.value() / loads;
    res_.dcache_store_hit_rate = cs.store_hits.value() / stores;
    res_.store_stall_cycles =
        static_cast<std::uint64_t>(cs.stall_cycles.value());
    return res_;
}

void
SystemSim::dumpStats(std::ostream &os) const
{
    dcache_->statGroup().dump(os, "system");
    icache_->statGroup().dump(os, "system");
    core_->statGroup().dump(os, "system");
    nvm_->statGroup().dump(os, "system");
}

} // namespace nvp
} // namespace wlcache
