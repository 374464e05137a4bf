/**
 * @file
 * Fault-injection campaign engine. For one (design, workload, trace)
 * triple the campaign (1) runs a golden uninterrupted reference
 * execution, (2) systematically forces a power failure at chosen
 * cycle points — exhaustively over a window, stride-sampled over the
 * whole run, or at explicit points — and (3) diffs each run's
 * post-recovery persistent state (NVM + design overlay + register
 * file) against the golden model, reporting the first divergence.
 * Point runs fan out over the runner's worker pool and land in its
 * content-addressed result cache, so re-running a campaign (or
 * bisecting inside one) is nearly free.
 *
 * Under the default infinite-power fault model every point run shares
 * the golden run's prefix up to its outage, so the golden run pauses
 * at each point, and once it has passed a chunk of points (four per
 * worker), those run on the pool, resumed from one snapshot ("rung")
 * of it taken strictly before the first of them. At most two rungs
 * are held, and resuming never changes a byte of the report.
 */

#ifndef WLCACHE_VERIFY_CAMPAIGN_HH
#define WLCACHE_VERIFY_CAMPAIGN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nvp/experiment.hh"
#include "nvp/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace verify {

/** Outcome of one forced-outage point. */
enum class Verdict
{
    Clean,       //!< Completed; every oracle agreed with golden.
    Divergent,   //!< Some oracle disagreed (the fault was detected).
    Incomplete,  //!< Run did not finish (environment died / outage cap).
    NotReached,  //!< Point lies beyond the end of execution.
};

const char *verdictName(Verdict v);

/** What the campaign executes and how it picks points. */
struct CampaignConfig
{
    /**
     * The experiment under test: design, workload, scale, seeds. The
     * campaign overrides the failure model — by default every point
     * run executes under infinite power with the forced outage as its
     * *only* power failure, so a divergence is attributable to that
     * single recovery. Set @c ambient to keep the spec's harvesting
     * environment (natural outages then occur in addition); point
     * runs then share no prefix with the golden run and run cold.
     */
    nvp::ExperimentSpec base;
    bool ambient = false;

    // --- Point selection (union of all three) ---

    /** Explicit forced-outage cycles. */
    std::vector<std::uint64_t> points;
    /** Stride-sample [stride, golden_on_cycles) every this many. */
    std::uint64_t stride = 0;
    /** Exhaustive window [begin, end) at @c window_step granularity. */
    bool has_window = false;
    std::uint64_t window_begin = 0;
    std::uint64_t window_end = 0;
    std::uint64_t window_step = 1;

    // --- Fault matrix (applied to point runs, not the golden run) ---

    /** Drop the design's JIT checkpoint at every outage. */
    bool inject_checkpoint_skip = false;
    /** Drop the NVFF register checkpoint at every outage. */
    bool inject_register_skip = false;

    // --- Search ---

    /**
     * After the sweep, bisect between the last clean point below the
     * first divergent point (or cycle 0) and the first divergent
     * point, to find the minimal failing cycle.
     */
    bool bisect = false;

    // --- Execution ---

    unsigned jobs = 0;          //!< Worker threads (0 = default).
    std::string cache_dir;      //!< Result cache; empty disables.
    bool progress = false;      //!< Per-job progress lines.
    /** Progress sink; null falls back to std::cerr. */
    std::ostream *progress_out = nullptr;

    /**
     * After a divergent sweep, re-run the first divergent point with a
     * telemetry timeline attached and keep the last this-many events
     * at or before the first divergence cycle (the "what led up to
     * it" window in the report). 0 disables the extra run. The re-run
     * bypasses the result cache on purpose: a cached result skips the
     * simulation, so it can never carry a timeline.
     */
    std::size_t timeline_window = 64;
};

/** One point's outcome (divergence detail copied from the run). */
struct PointResult
{
    std::uint64_t point = 0;        //!< Requested outage cycle.
    Verdict verdict = Verdict::Clean;
    bool completed = false;
    /** Powered cycles of the point's run: a resumed run that struck
     *  its forced outage at another cycle shows a different count. */
    std::uint64_t on_cycles = 0;
    std::uint64_t outages = 0;
    std::uint64_t forced_outages = 0;

    bool has_first_divergence = false;
    std::string first_divergence_kind;
    std::uint64_t first_divergence_addr = 0;
    std::uint64_t first_divergence_cycle = 0;
    std::uint64_t first_divergence_outage = 0;
    std::uint64_t consistency_violations = 0;
    std::uint64_t load_value_mismatches = 0;
    std::uint64_t register_restore_mismatches = 0;
    bool final_state_correct = false;
    std::string final_state_digest;
};

/** Outcome of the minimal-failing-cycle search. */
struct BisectResult
{
    bool ran = false;
    std::uint64_t clean_low = 0;     //!< Known-clean lower bound.
    std::uint64_t first_fail = 0;    //!< Sweep's first divergent point.
    std::uint64_t minimal_fail = 0;  //!< Smallest divergent cycle found.
    std::size_t probes = 0;          //!< Extra runs the search cost.
};

/** Everything a campaign learned. */
struct CampaignReport
{
    std::string workload;
    std::string design;

    /** Uninterrupted reference execution. */
    nvp::RunResult golden;
    /** Golden run completed with every oracle silent. */
    bool golden_clean = false;

    std::vector<PointResult> points;   //!< Sorted by point cycle.
    std::size_t num_clean = 0;
    std::size_t num_divergent = 0;
    std::size_t num_incomplete = 0;
    std::size_t num_not_reached = 0;

    BisectResult bisect;

    /**
     * Timeline window around the first divergence: the last
     * CampaignConfig::timeline_window events recorded at or before
     * the divergence cycle of the first divergent point's re-run
     * (chronological order). Empty unless a point diverged and
     * timeline_window > 0.
     */
    bool has_divergence_window = false;
    std::uint64_t divergence_window_point = 0;
    std::vector<telemetry::TimelineEvent> divergence_window;

    // Runner economics (sweep + bisect probes + golden).
    std::size_t runs = 0;
    std::size_t cache_hits = 0;
    std::size_t executed = 0;
    /**
     * On-cycles actually simulated by every run (a resumed run counts
     * only those past its resume point; a cached golden run re-run for
     * its rungs counts too). Deliberately NOT serialized into the JSON
     * report: a fast-forwarded campaign must produce a byte-identical
     * report to a cold one, and this is the one field that differs.
     */
    std::uint64_t simulated_cycles = 0;

    /** No divergence anywhere (bisect probes included). */
    bool allClean() const { return num_divergent == 0; }
};

/** Execute a campaign. */
CampaignReport runCampaign(const CampaignConfig &cfg);

/** Snapshots ("rungs") of a golden run, ascending by cycle. */
using SnapshotLadder =
    std::vector<std::shared_ptr<const nvp::SystemSnapshot>>;

/**
 * The rung a forced outage at cycle @p point resumes from: the latest
 * snapshot captured strictly before @p point (one captured AT the
 * point is too late: that cycle's forced-outage check has already
 * passed). Null when no rung precedes @p point.
 */
std::shared_ptr<const nvp::SystemSnapshot>
rungBefore(const SnapshotLadder &ladder, Cycle point);

/**
 * Write @p report as a single structured-JSON object: golden summary,
 * per-point verdicts with first-divergence address/cycle/kind, bisect
 * outcome, and cache statistics.
 */
void writeCampaignReportJson(std::ostream &os,
                             const CampaignReport &report);

/**
 * Write the human-readable per-campaign summary block (the one-shot
 * CLI's stdout: verdict counts, divergent-point table, timeline
 * window and bisect lines).
 */
void writeCampaignSummary(std::ostream &os,
                          const CampaignReport &report);

} // namespace verify
} // namespace wlcache

#endif // WLCACHE_VERIFY_CAMPAIGN_HH
