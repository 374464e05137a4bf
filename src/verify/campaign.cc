#include "verify/campaign.hh"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/spec_key.hh"
#include "sim/logging.hh"

namespace wlcache {
namespace verify {

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Clean:      return "clean";
      case Verdict::Divergent:  return "divergent";
      case Verdict::Incomplete: return "incomplete";
      case Verdict::NotReached: return "not-reached";
    }
    panic("unknown Verdict %d", static_cast<int>(v));
}

namespace {

/** The spec a single forced-outage point runs with. */
nvp::ExperimentSpec
pointSpec(const CampaignConfig &cfg, std::uint64_t point)
{
    nvp::ExperimentSpec spec = cfg.base;
    // Default: infinite power, so the forced point is the run's only
    // outage and a divergence is attributable to that one recovery.
    if (!cfg.ambient)
        spec.no_failure = true;
    const auto base_tweak = cfg.base.tweak;
    const bool skip_ckpt = cfg.inject_checkpoint_skip;
    const bool skip_regs = cfg.inject_register_skip;
    spec.tweak = [base_tweak, point, skip_ckpt,
                  skip_regs](nvp::SystemConfig &c) {
        if (base_tweak)
            base_tweak(c);
        c.forced_outage_cycles = { point };
        c.validate_consistency = true;
        c.check_load_values = true;
        c.inject_checkpoint_skip = skip_ckpt;
        c.inject_register_skip = skip_regs;
    };
    return spec;
}

/** The golden (uninterrupted, fault-free) reference spec. */
nvp::ExperimentSpec
goldenSpec(const CampaignConfig &cfg)
{
    nvp::ExperimentSpec spec = cfg.base;
    spec.no_failure = true;
    const auto base_tweak = cfg.base.tweak;
    spec.tweak = [base_tweak](nvp::SystemConfig &c) {
        if (base_tweak)
            base_tweak(c);
        c.forced_outage_cycles.clear();
        c.validate_consistency = true;
        c.check_load_values = true;
        c.inject_checkpoint_skip = false;
        c.inject_register_skip = false;
    };
    return spec;
}

Verdict
judge(const nvp::RunResult &run, const nvp::RunResult &golden)
{
    if (!run.completed)
        return Verdict::Incomplete;
    if (run.forced_outages == 0)
        return Verdict::NotReached;
    const bool diverged = run.consistency_violations > 0 ||
        run.load_value_mismatches > 0 ||
        run.register_restore_mismatches > 0 ||
        !run.final_state_correct ||
        run.final_state_digest != golden.final_state_digest;
    return diverged ? Verdict::Divergent : Verdict::Clean;
}

PointResult
toPointResult(std::uint64_t point, const nvp::RunResult &run,
              const nvp::RunResult &golden)
{
    PointResult pr;
    pr.point = point;
    pr.verdict = judge(run, golden);
    pr.completed = run.completed;
    pr.on_cycles = run.on_cycles;
    pr.outages = run.outages;
    pr.forced_outages = run.forced_outages;
    pr.has_first_divergence = run.has_first_divergence;
    pr.first_divergence_kind = run.first_divergence_kind;
    pr.first_divergence_addr = run.first_divergence_addr;
    pr.first_divergence_cycle = run.first_divergence_cycle;
    pr.first_divergence_outage = run.first_divergence_outage;
    pr.consistency_violations = run.consistency_violations;
    pr.load_value_mismatches = run.load_value_mismatches;
    pr.register_restore_mismatches = run.register_restore_mismatches;
    pr.final_state_correct = run.final_state_correct;
    pr.final_state_digest = run.final_state_digest;
    return pr;
}

void
countVerdict(CampaignReport &rep, Verdict v)
{
    switch (v) {
      case Verdict::Clean:      ++rep.num_clean; break;
      case Verdict::Divergent:  ++rep.num_divergent; break;
      case Verdict::Incomplete: ++rep.num_incomplete; break;
      case Verdict::NotReached: ++rep.num_not_reached; break;
    }
}

void
absorbStats(CampaignReport &rep, const runner::BatchStats &st)
{
    rep.runs += st.total;
    rep.cache_hits += st.cache_hits;
    rep.executed += st.executed;
    rep.simulated_cycles += st.simulated_cycles;
}

} // anonymous namespace

std::shared_ptr<const nvp::SystemSnapshot>
rungBefore(const SnapshotLadder &ladder, Cycle point)
{
    const auto after = std::partition_point(
        ladder.begin(), ladder.end(),
        [point](const auto &s) { return s->cycle < point; });
    return after == ladder.begin() ? nullptr : *std::prev(after);
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    CampaignReport rep;
    rep.workload = cfg.base.workload;
    rep.design = nvp::designKindName(cfg.base.design);

    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);

    // Snapshot resume only makes sense under the infinite-power
    // fault model: under ambient power the point runs live in the
    // spec's harvesting environment while the golden run does not,
    // so they share no common prefix to fast-forward through.
    std::uint64_t snap_interval = cfg.snapshot_interval;
    if (snap_interval && cfg.ambient) {
        warn("campaign: snapshot resume requires the infinite-power "
             "fault model; ignoring snapshot_interval under ambient");
        snap_interval = 0;
    }

    // --- 1. Golden reference: uninterrupted, fault-free. ---
    //
    // With snapshots enabled the golden run doubles as the ladder
    // recorder: it executes directly (a result-cache hit would skip
    // the simulation and record nothing) with a snapshot sink that
    // keeps each snapshot once, shared by every point resuming from
    // it. Taking snapshots never perturbs the run, so the RunResult
    // is identical either way.
    const nvp::ExperimentSpec gspec = goldenSpec(cfg);
    SnapshotLadder ladder;
    if (snap_interval) {
        nvp::RunOptions ro;
        ro.snapshot_interval = snap_interval;
        ro.snapshot_sink = [&ladder](nvp::SystemSnapshot &&s) {
            ladder.push_back(
                std::make_shared<const nvp::SystemSnapshot>(std::move(s)));
        };
        rep.golden = nvp::runExperiment(gspec, ro);
        ++rep.runs;
        ++rep.executed;
        rep.simulated_cycles += rep.golden.on_cycles;
        const runner::ResultCache cache(cfg.cache_dir);
        cache.store(runner::specKey(gspec), rep.golden);
    } else {
        runner::JobSet set;
        set.add(gspec, "golden");
        rep.golden = runner.runAll(set).at(0);
        absorbStats(rep, runner.stats());
    }
    rep.golden_clean = rep.golden.completed && !rep.golden.divergence &&
        rep.golden.final_state_correct;
    if (!rep.golden_clean) {
        // The reference itself is broken; point verdicts would be
        // meaningless, so report the golden failure and stop.
        return rep;
    }

    // --- 2. Point selection: explicit + stride + window, deduped. ---
    std::vector<std::uint64_t> pts = cfg.points;
    if (cfg.stride > 0) {
        for (std::uint64_t c = cfg.stride; c < rep.golden.on_cycles;
             c += cfg.stride)
            pts.push_back(c);
    }
    if (cfg.has_window) {
        const std::uint64_t step = std::max<std::uint64_t>(
            1, cfg.window_step);
        for (std::uint64_t c = cfg.window_begin; c < cfg.window_end;
             c += step)
            pts.push_back(c);
    }
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

    // --- 3. Sweep: one run per point, fanned over the pool. ---
    if (!pts.empty()) {
        runner::JobSet set;
        for (const std::uint64_t p : pts) {
            const std::size_t i =
                set.add(pointSpec(cfg, p), "p" + std::to_string(p));
            if (auto r = rungBefore(ladder, p))
                set.setResume(i, std::move(r));
        }
        const std::vector<nvp::RunResult> runs = runner.runAll(set);
        absorbStats(rep, runner.stats());
        rep.points.reserve(pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            rep.points.push_back(
                toPointResult(pts[i], runs[i], rep.golden));
            countVerdict(rep, rep.points.back().verdict);
        }
    }

    // --- 4. Divergence context: re-run the first divergent point
    // with a timeline attached and keep the window of events leading
    // up to the first divergence. Direct runExperiment, not the
    // runner: a result-cache hit would skip the simulation entirely
    // and record nothing. ---
    if (cfg.timeline_window > 0 && rep.num_divergent > 0) {
        std::uint64_t fail_point = 0;
        for (const PointResult &pr : rep.points) {
            if (pr.verdict == Verdict::Divergent) {
                fail_point = pr.point;
                break;
            }
        }
        telemetry::TimelineBuffer tl(1u << 16);
        nvp::ExperimentSpec spec = pointSpec(cfg, fail_point);
        const auto point_tweak = spec.tweak;
        telemetry::TimelineBuffer *tlp = &tl;
        spec.tweak = [point_tweak, tlp](nvp::SystemConfig &c) {
            point_tweak(c);
            c.timeline = tlp;
        };
        const nvp::RunResult rr = nvp::runExperiment(spec);
        ++rep.runs;
        ++rep.executed;
        rep.simulated_cycles += rr.on_cycles;
        // Digest-only divergences carry no first-divergence cycle;
        // fall back to the end of the run.
        const Cycle upto = rr.has_first_divergence
            ? rr.first_divergence_cycle : ~static_cast<Cycle>(0);
        rep.divergence_window =
            tl.lastBefore(upto, cfg.timeline_window);
        rep.has_divergence_window = true;
        rep.divergence_window_point = fail_point;
    }

    // --- 5. Bisect down to the minimal failing cycle. ---
    if (cfg.bisect && rep.num_divergent > 0) {
        std::uint64_t first_fail = 0;
        std::uint64_t clean_low = 0;
        bool found = false;
        for (const PointResult &pr : rep.points) {
            if (pr.verdict == Verdict::Divergent) {
                first_fail = pr.point;
                found = true;
                break;
            }
            if (pr.verdict == Verdict::Clean)
                clean_low = pr.point;
        }
        wlc_assert(found);

        BisectResult &b = rep.bisect;
        b.ran = true;
        b.clean_low = clean_low;
        b.first_fail = first_fail;

        // Invariant: lo is known clean (or cycle 0, which we treat as
        // the search floor), hi is known divergent. Every probe goes
        // through the runner, so repeated campaigns re-use them.
        std::uint64_t lo = clean_low;
        std::uint64_t hi = first_fail;
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            runner::JobSet probe;
            probe.add(pointSpec(cfg, mid),
                      "bisect" + std::to_string(mid));
            if (auto r = rungBefore(ladder, mid))
                probe.setResume(0, std::move(r));
            const nvp::RunResult run = runner.runAll(probe).at(0);
            absorbStats(rep, runner.stats());
            ++b.probes;
            // An Incomplete/NotReached probe cannot prove the fault
            // absent below mid; treat it as clean so the search keeps
            // homing in on the sweep's confirmed failure.
            if (judge(run, rep.golden) == Verdict::Divergent)
                hi = mid;
            else
                lo = mid;
        }
        b.minimal_fail = hi;
    }

    return rep;
}

} // namespace verify
} // namespace wlcache
