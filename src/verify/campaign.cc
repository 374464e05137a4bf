#include "verify/campaign.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
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

/**
 * The spec of the run forcing an outage at @p point or, without one,
 * of the golden (uninterrupted, fault-free) reference run.
 */
nvp::ExperimentSpec
runSpec(const CampaignConfig &cfg, std::optional<Cycle> point)
{
    nvp::ExperimentSpec spec = cfg.base;
    // Default: infinite power, so the forced point is the run's only
    // outage and a divergence is attributable to that one recovery.
    if (!cfg.ambient || !point)
        spec.no_failure = true;
    const auto base_tweak = cfg.base.tweak;
    const bool skip_ckpt = point && cfg.inject_checkpoint_skip;
    const bool skip_regs = point && cfg.inject_register_skip;
    spec.tweak = [base_tweak, point, skip_ckpt,
                  skip_regs](nvp::SystemConfig &c) {
        if (base_tweak)
            base_tweak(c);
        c.forced_outage_cycles.assign(point.has_value(), point.value_or(0));
        c.validate_consistency = true;
        c.check_load_values = true;
        c.inject_checkpoint_skip = skip_ckpt;
        c.inject_register_skip = skip_regs;
    };
    return spec;
}

/** @p pr's verdict; its fields are copied from the point's run. */
Verdict
judge(const PointResult &pr, const nvp::RunResult &golden)
{
    if (!pr.completed)
        return Verdict::Incomplete;
    if (pr.forced_outages == 0)
        return Verdict::NotReached;
    const bool diverged = pr.consistency_violations > 0 ||
        pr.load_value_mismatches > 0 || pr.register_restore_mismatches > 0 ||
        !pr.final_state_correct ||
        pr.final_state_digest != golden.final_state_digest;
    return diverged ? Verdict::Divergent : Verdict::Clean;
}

/** @p run's outcome, before judge() gives it a verdict. */
PointResult
toPointResult(std::uint64_t point, const nvp::RunResult &run)
{
    return { .point = point, .verdict = Verdict::Clean,
             .completed = run.completed, .on_cycles = run.on_cycles,
             .outages = run.outages, .forced_outages = run.forced_outages,
             .has_first_divergence = run.has_first_divergence,
             .first_divergence_kind = run.first_divergence_kind,
             .first_divergence_addr = run.first_divergence_addr,
             .first_divergence_cycle = run.first_divergence_cycle,
             .first_divergence_outage = run.first_divergence_outage,
             .consistency_violations = run.consistency_violations,
             .load_value_mismatches = run.load_value_mismatches,
             .register_restore_mismatches = run.register_restore_mismatches,
             .final_state_correct = run.final_state_correct,
             .final_state_digest = run.final_state_digest };
}

constexpr Cycle kNever = nvp::RunOptions::kNever;

/** Points per worker in one chunk: a runner call ends with its slowest
 *  job, so fewer leave workers idle at the end of every chunk, and
 *  more cost each point more prefix (EXPERIMENTS.md measures both). */
constexpr std::size_t kPointsPerWorker = 4;

/** A campaign's point runs, in chunks as the golden run passes them
 *  (campaign.hh); stride points are made then, as they end at its
 *  length, and finish() runs the points it never passed. */
class Sweep
{
  public:
    explicit Sweep(const CampaignConfig &cfg)
        : cfg_(cfg), runner_({ .jobs = cfg.jobs,
                               .cache_dir = cfg.cache_dir,
                               .progress = cfg.progress,
                               .progress_out = cfg.progress_out,
                               .manifest_path = "" }),
          fixed_(cfg.points),
          next_stride_(cfg.stride), stride_end_(cfg.stride ? kNever : 0),
          chunk_(kPointsPerWorker *
                 (cfg.jobs ? cfg.jobs : runner::defaultJobs()))
    {
        for (Cycle c = cfg.window_begin; cfg.has_window && c < cfg.window_end;
             c += std::max<Cycle>(1, cfg.window_step))
            fixed_.push_back(c);
        std::sort(fixed_.begin(), fixed_.end());
        fixed_.erase(std::unique(fixed_.begin(), fixed_.end()), fixed_.end());
    }

    /** The first rung's pause: one point gap before the first point. */
    Cycle
    firstPause() const
    {
        Sweep rest = *this;
        rest.pass(nextPoint());
        if (rest.pending_.empty())
            return kNever;
        const Cycle first = rest.pending_.front();
        return first - std::min(first, rest.nextPoint() - first);
    }

    /** The golden run's RunOptions::on_pause. */
    Cycle
    pause(const nvp::SystemSim &golden)
    {
        pass(golden.now());
        bool ran = ladder_.empty();
        for (; pending_.size() >= chunk_; ran = true) {
            runPoints({ pending_.begin(), pending_.begin() + chunk_ }, points);
            pending_.erase(pending_.begin(), pending_.begin() + chunk_);
        }
        if (ran) {
            ladder_.push_back(std::make_shared<const nvp::SystemSnapshot>(
                golden.takeSnapshot()));
            // Drop the rungs no point still to run resumes from.
            const Cycle need =
                pending_.empty() ? nextPoint() : pending_.front();
            while (ladder_.size() > 1 && ladder_[1]->cycle < need)
                ladder_.erase(ladder_.begin());
        }
        return nextPoint();
    }

    /** Run every point left; stride points end below @p end. */
    void
    finish(Cycle end)
    {
        stride_end_ = std::min(stride_end_, end);
        pass(kNever);
        if (!pending_.empty())
            runPoints(pending_, points);
    }

    /** Some point left (stride points ending below @p end) has no
     *  entry in @p cache. */
    bool
    anyUncached(Cycle end, const runner::ResultCache &cache) const
    {
        Sweep rest = *this;
        rest.stride_end_ = std::min(stride_end_, end);
        rest.pass(kNever);
        return std::ranges::any_of(rest.pending_, [&](Cycle p) {
            return !std::filesystem::exists(
                cache.entryPath(runner::specKey(runSpec(cfg_, p))));
        });
    }

    /** Run @p pts, all from the rung before the first, and append
     *  their outcomes (verdicts unset) to @p out. */
    void
    runPoints(const std::vector<Cycle> &pts, std::vector<PointResult> &out)
    {
        const auto rung = rungBefore(ladder_, pts.front());
        runner::JobSet set;
        for (const Cycle p : pts)
            set.add(runSpec(cfg_, p),
                    std::string("p").append(std::to_string(p)), rung);
        const std::vector<nvp::RunResult> runs = runner_.runAll(set);
        const runner::BatchStats &st = runner_.stats();
        economics.runs += st.total;
        economics.cache_hits += st.cache_hits;
        economics.executed += st.executed;
        economics.simulated_cycles += st.simulated_cycles;
        for (std::size_t i = 0; i < pts.size(); ++i)
            out.push_back(toPointResult(pts[i], runs[i]));
    }

    std::vector<PointResult> points;  //!< Run so far; verdicts unset.
    CampaignReport economics;         //!< Runner counts of every run.

  private:
    /** The first point the golden run has not passed (or kNever). */
    Cycle
    nextPoint() const
    {
        const Cycle f =
            next_fixed_ < fixed_.size() ? fixed_[next_fixed_] : kNever;
        return next_stride_ < stride_end_ ? std::min(f, next_stride_) : f;
    }

    /** Queue the points at or below @p upto, ascending and once. */
    void
    pass(Cycle upto)
    {
        const auto from = static_cast<std::ptrdiff_t>(pending_.size());
        for (; next_fixed_ < fixed_.size() && fixed_[next_fixed_] <= upto;
             ++next_fixed_)
            pending_.push_back(fixed_[next_fixed_]);
        for (; next_stride_ < stride_end_ && next_stride_ <= upto;
             next_stride_ += cfg_.stride)
            pending_.push_back(next_stride_);
        std::sort(pending_.begin() + from, pending_.end());
        pending_.erase(std::unique(pending_.begin() + from, pending_.end()),
                       pending_.end());
    }

    const CampaignConfig &cfg_;
    runner::Runner runner_;
    std::vector<Cycle> fixed_;  //!< Explicit and window points.
    std::size_t next_fixed_ = 0;
    Cycle next_stride_, stride_end_;
    const std::size_t chunk_;
    std::vector<Cycle> pending_;  //!< Passed, not run yet.
    SnapshotLadder ladder_;
};

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

    Sweep sweep(cfg);

    // --- 1. Golden reference (uninterrupted, fault-free), running
    // the sweep as it passes the points. A cached golden run is
    // re-run only for its rungs: when some point still has to run
    // and, under the infinite-power model, can fast-forward. ---
    const nvp::ExperimentSpec gspec = runSpec(cfg, std::nullopt);
    const std::string gkey = runner::specKey(gspec);
    const runner::ResultCache cache(cfg.cache_dir);
    const bool cached = cache.load(gkey, rep.golden);
    ++rep.runs;
    ++(cached ? rep.cache_hits : rep.executed);
    if (!cached ||
        (!cfg.ambient && sweep.anyUncached(rep.golden.on_cycles, cache))) {
        nvp::RunOptions ro;
        ro.cut_request = &runner::interruptFlag();
        ro.pause_at = cfg.ambient ? kNever : sweep.firstPause();
        ro.on_pause = [&](const nvp::SystemSim &g) { return sweep.pause(g); };
        rep.golden = nvp::runExperiment(gspec, ro);
        rep.simulated_cycles += rep.golden.on_cycles;
        // A run cut by the interrupt is incomplete: never cache it.
        if (!cached && (rep.golden.completed || !runner::interrupted()))
            cache.store(gkey, rep.golden);
    }
    rep.golden_clean = rep.golden.completed && !rep.golden.divergence &&
        rep.golden.final_state_correct;
    if (!rep.golden_clean) {
        // The reference itself is broken; point verdicts would be
        // meaningless, so report the golden failure and stop.
        return rep;
    }

    // --- 2. The rest of the sweep, then every verdict. ---
    sweep.finish(rep.golden.on_cycles);
    rep.points = std::move(sweep.points);
    for (PointResult &pr : rep.points) {
        switch (pr.verdict = judge(pr, rep.golden)) {
          case Verdict::Clean:      ++rep.num_clean; break;
          case Verdict::Divergent:  ++rep.num_divergent; break;
          case Verdict::Incomplete: ++rep.num_incomplete; break;
          case Verdict::NotReached: ++rep.num_not_reached; break;
        }
    }

    // --- 3. Divergence context: re-run the first divergent point
    // with a timeline attached and keep the window of events leading
    // up to the first divergence. Direct runExperiment, not the
    // runner: a result-cache hit would skip the simulation entirely
    // and record nothing. ---
    const auto fail = std::ranges::find(rep.points, Verdict::Divergent,
                                        &PointResult::verdict);
    if (cfg.timeline_window > 0 && fail != rep.points.end()) {
        telemetry::TimelineBuffer tl(1u << 16);
        nvp::ExperimentSpec spec = runSpec(cfg, fail->point);
        spec.tweak = [point_tweak = spec.tweak, &tl](nvp::SystemConfig &c) {
            point_tweak(c);
            c.timeline = &tl;
        };
        const nvp::RunResult rr = nvp::runExperiment(spec);
        ++rep.runs;
        ++rep.executed;
        rep.simulated_cycles += rr.on_cycles;
        // Digest-only divergences carry no first-divergence cycle;
        // fall back to the end of the run.
        const Cycle upto =
            rr.has_first_divergence ? rr.first_divergence_cycle : kNever;
        rep.divergence_window = tl.lastBefore(upto, cfg.timeline_window);
        rep.has_divergence_window = true;
        rep.divergence_window_point = fail->point;
    }

    // --- 4. Bisect down to the minimal failing cycle. ---
    if (cfg.bisect && fail != rep.points.end()) {
        BisectResult &b = rep.bisect;
        b.ran = true;
        b.first_fail = fail->point;
        const auto clean = std::ranges::find(std::make_reverse_iterator(fail),
                                             rep.points.rend(), Verdict::Clean,
                                             &PointResult::verdict);
        b.clean_low = clean == rep.points.rend() ? 0 : clean->point;

        // Invariant: lo is known clean (or cycle 0, which we treat as
        // the search floor), hi is known divergent. Every probe goes
        // through the runner, so repeated campaigns re-use them.
        std::uint64_t lo = b.clean_low;
        std::uint64_t hi = b.first_fail;
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            std::vector<PointResult> probe;
            sweep.runPoints({ mid }, probe);
            ++b.probes;
            // An Incomplete/NotReached probe cannot prove the fault
            // absent below mid; treat it as clean so the search keeps
            // homing in on the sweep's confirmed failure.
            if (judge(probe.front(), rep.golden) == Verdict::Divergent)
                hi = mid;
            else
                lo = mid;
        }
        b.minimal_fail = hi;
    }

    // Every point run and probe.
    rep.runs += sweep.economics.runs;
    rep.cache_hits += sweep.economics.cache_hits;
    rep.executed += sweep.economics.executed;
    rep.simulated_cycles += sweep.economics.simulated_cycles;
    return rep;
}

} // namespace verify
} // namespace wlcache
