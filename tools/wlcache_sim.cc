/**
 * @file
 * The general-purpose simulator driver: run any (design x workload x
 * environment x configuration) combination from the command line and
 * print the result summary, with optional full statistics dump and
 * crash-consistency validation. This is the tool a user reaches for
 * when exploring configurations the benchmark harnesses do not
 * sweep.
 *
 * Examples:
 *   wlcache_sim --design wl --workload sha --trace trace1
 *   wlcache_sim --design nvsram --workload FFT --trace solar --stats
 *   wlcache_sim --design wl --maxline 4 --dq-size 10 --no-adaptive \
 *               --capacitor 10e-6 --validate
 *   wlcache_sim --design wl --workload sha --trace trace1 \
 *               --debug queue,power 2> events.csv
 *
 * Batch mode sweeps comma-separated lists (or "all") of designs,
 * workloads and traces through the parallel runner, printing one
 * deterministic summary table on stdout (progress goes to stderr):
 *   wlcache_sim --batch --design wl,replay --workload all \
 *               --trace trace1 --jobs 8 --cache-dir ~/.wlcache-cache
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "mem/device/tech_profile.hh"
#include "nvp/run_json.hh"
#include "nvp/schema.hh"
#include "nvp/system.hh"
#include "runner/runner.hh"
#include "telemetry/exporters.hh"
#include "telemetry/timeline.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

/** Parse a replacement-policy option, failing loudly on a typo. */
cache::ReplPolicy
replOption(const util::ArgParser &args, const char *name)
{
    cache::ReplPolicy p;
    if (!cache::replPolicyFromName(args.get(name), p))
        fatal("unknown --%s '%s' (lru|fifo)", name,
              args.get(name).c_str());
    return p;
}

nvp::DesignKind
designOption(const std::string &name)
{
    nvp::DesignKind design;
    if (!nvp::designFromShortName(name, design))
        fatal("unknown design '%s' (valid: %s)", name.c_str(),
              util::join(nvp::designShortNames(), "|").c_str());
    return design;
}

energy::TraceKind
traceOption(const std::string &name, bool &no_failure)
{
    energy::TraceKind kind;
    if (!nvp::powerFromShortName(name, kind, no_failure))
        fatal("unknown trace '%s' (valid: %s)", name.c_str(),
              util::join(nvp::powerShortNames(), "|").c_str());
    return kind;
}

/** fatal() unless --@p flag reaches the floor that the registry row
 *  @p key of @p fields sets for sweeps too. */
void
checkFloor(const util::ArgParser &args, const char *flag,
           const nvp::FieldTable &fields, const char *key)
{
    const double v = args.getDouble(flag);
    const double min = nvp::fieldByKey(fields, key).min;
    if (v < min)
        fatal("--%s must be >= %g, got %s", flag, min,
              args.get(flag).c_str());
}

/** Apply every CLI configuration override to @p cfg. Shared between
 *  the single-run path and batch mode so both resolve a spec the
 *  same way. */
void
applyCliConfig(const util::ArgParser &args, nvp::SystemConfig &cfg)
{
    cfg.dcache.size_bytes =
        static_cast<std::size_t>(args.getInt("cache-size"));
    cfg.icache.size_bytes = cfg.dcache.size_bytes;
    cfg.dcache.assoc = static_cast<unsigned>(args.getInt("assoc"));
    cfg.icache.assoc = cfg.dcache.assoc;
    cfg.dcache.repl = replOption(args, "cache-repl");
    cfg.wl.dq_size = static_cast<unsigned>(args.getInt("dq-size"));
    cfg.wl.maxline = static_cast<unsigned>(args.getInt("maxline"));
    cfg.wl.dq_repl = replOption(args, "dq-repl");
    cfg.adaptive.maxline_max = cfg.wl.dq_size >= 4
        ? cfg.wl.dq_size - 2 : cfg.wl.dq_size;
    cfg.adaptive.maxline_min =
        std::min(cfg.adaptive.maxline_min, cfg.adaptive.maxline_max);
    cfg.platform.capacitance_f = args.getDouble("capacitor");
    if (args.getFlag("no-adaptive"))
        cfg.adaptive.enabled = false;
    cfg.wl_dynamic = args.getFlag("dynamic");
    cfg.wl.eager_evict_cleanup = args.getFlag("eager-cleanup");
    cfg.validate_consistency = args.getFlag("validate");
    cfg.check_load_values = args.getFlag("validate");
    const std::string tech = util::toLower(args.get("nvm-tech"));
    if (!tech.empty()) {
        const mem::NvmTechProfile *prof = mem::findTechProfile(tech);
        if (!prof)
            fatal("unknown --nvm-tech '%s' (reram|stt-ram|fram|flash)",
                  tech.c_str());
        mem::applyTechProfile(cfg.nvm, *prof);
    }
    const std::string nvm_model = util::toLower(args.get("nvm-model"));
    if (!mem::nvmModelFromName(nvm_model, cfg.nvm.model))
        fatal("unknown --nvm-model '%s' (legacy|banked)",
              nvm_model.c_str());
    if (args.getFlag("nvm-track-wear"))
        cfg.nvm.track_wear = true;
    const std::string mode = util::toLower(args.get("step-mode"));
    if (!nvp::stepModeFromName(mode, cfg.step_mode))
        fatal("unknown --step-mode '%s' (percycle|skip_ahead)",
              mode.c_str());
    std::string why;
    if (!nvp::checkWlGeometry(cfg, why))
        fatal("%s (--maxline, --dq-size)", why.c_str());
}

/** Expand a comma-separated list, mapping "all" to @p everything. */
std::vector<std::string>
expandList(const std::string &arg,
           const std::vector<std::string> &everything)
{
    if (util::toLower(arg) == "all")
        return everything;
    std::vector<std::string> out;
    for (auto &item : util::split(arg, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** Run a design x workload x trace sweep through the parallel
 *  runner; the summary table on stdout is deterministic (identical
 *  for any --jobs value), progress goes to stderr. */
int
runBatch(const util::ArgParser &args)
{
    std::vector<std::string> all_workloads;
    for (const auto &w : workloads::allWorkloads())
        all_workloads.push_back(w.name);

    const auto designs =
        expandList(args.get("design"), nvp::designShortNames());
    const auto traces =
        expandList(args.get("trace"), nvp::powerShortNames());
    const auto apps = expandList(args.get("workload"), all_workloads);
    if (designs.empty() || traces.empty() || apps.empty())
        fatal("batch mode needs at least one design, workload and "
              "trace");

    runner::JobSet set;
    for (const auto &trace_name : traces) {
        bool no_failure = false;
        const energy::TraceKind kind = traceOption(trace_name, no_failure);
        for (const auto &design_name : designs) {
            const nvp::DesignKind design = designOption(design_name);
            for (const auto &app : apps) {
                if (!workloads::findWorkload(app))
                    fatal("unknown workload '%s'", app.c_str());
                nvp::ExperimentSpec s;
                s.design = design;
                s.workload = app;
                s.power = kind;
                s.no_failure = no_failure;
                s.scale =
                    static_cast<unsigned>(args.getInt("scale"));
                s.workload_seed =
                    static_cast<std::uint64_t>(args.getInt("seed"));
                s.power_seed = static_cast<std::uint64_t>(
                    args.getInt("power-seed"));
                s.tweak = [&args](nvp::SystemConfig &cfg) {
                    applyCliConfig(args, cfg);
                };
                set.add(s, nvp::designKindName(design) +
                               std::string("/") + app + "@" +
                               trace_name);
            }
        }
    }

    runner::RunnerConfig rc;
    rc.jobs = static_cast<unsigned>(args.getCount("jobs"));
    rc.cache_dir = args.get("cache-dir");
    rc.progress = !args.getFlag("no-progress");
    rc.manifest_path = args.get("manifest");
    runner::installInterruptHandlers();
    runner::Runner run(rc);
    const auto results = run.runAll(set);
    if (runner::interrupted()) {
        std::cerr << "interrupted: no results written; re-run to "
                     "resume\n";
        return 130;
    }

    util::TextTable t;
    t.header({ "design", "workload", "trace", "done", "time",
               "outages", "energy", "nvm writes", "load hit%" });
    bool all_completed = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &spec = set.jobs()[i].spec;
        all_completed = all_completed && r.completed;
        t.row({ nvp::designKindName(spec.design), spec.workload,
                spec.no_failure
                    ? "none"
                    : energy::traceKindName(spec.power),
                r.completed ? "yes" : "NO",
                util::fmtSeconds(r.total_seconds),
                std::to_string(r.outages),
                util::fmtEnergy(r.meter.total()),
                std::to_string(r.nvm_writes),
                util::fmtDouble(100.0 * r.dcache_load_hit_rate,
                                2) });
    }
    t.print(std::cout);

    const auto &st = run.stats();
    std::cerr << "batch: " << st.total << " runs, " << st.cache_hits
              << " cache hits, " << st.executed << " executed, "
              << st.jobs << " worker thread(s), "
              << util::fmtSeconds(st.wall_seconds) << " wall\n";
    return all_completed ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "wlcache_sim",
        "run one NVP cache-design simulation end to end");
    args.option("design", "wl", util::join(nvp::designShortNames(), "|"))
        .option("workload", "sha", "one of the 23 benchmark kernels")
        .option("trace", "trace1", util::join(nvp::powerShortNames(), "|"))
        .option("scale", "1", "workload input scale factor")
        .option("seed", "42", "workload input seed")
        .option("power-seed", "7", "power trace seed")
        .option("cache-size", "8192", "L1 D/I cache bytes")
        .option("assoc", "2", "set associativity")
        .option("cache-repl", "lru", "D-cache replacement: lru|fifo")
        .option("dq-size", "8", "DirtyQueue slots (WL)")
        .option("maxline", "6", "initial maxline (WL)")
        .option("dq-repl", "fifo", "DirtyQueue replacement: fifo|lru")
        .option("capacitor", "1e-6", "capacitance, farads")
        .option("nvm-model", "legacy",
                "NVM device timing core: legacy|banked "
                "(mem/device/)")
        .option("nvm-tech", "",
                "apply an NVM technology profile: "
                "reram|stt-ram|fram|flash")
        .flag("nvm-track-wear",
              "count per-line NVM writes (endurance tracking)")
        .option("step-mode", "skip_ahead",
                "run-loop energy integration: skip_ahead|percycle "
                "(bit-identical results; percycle is the slow "
                "reference loop, DESIGN.md sec. 15)")
        .flag("no-adaptive", "disable boot-time adaptation (WL)")
        .flag("dynamic", "enable dynamic maxline adaptation (WL)")
        .flag("eager-cleanup", "eager DQ cleanup ablation (WL)")
        .flag("validate", "run the crash-consistency oracle")
        .flag("stats", "dump full component statistics")
        .option("debug", "",
                "stream these timeline tracks to stderr as CSV rows: " +
                    telemetry::trackNameList())
        .option("json", "", "write the run record as JSON to a file")
        .option("timeline", "",
                "record a cycle-stamped event timeline and write it "
                "to this file")
        .option("timeline-format", "perfetto",
                "timeline export format: perfetto|csv")
        .option("timeline-capacity", "65536",
                "timeline ring-buffer slots (oldest events are "
                "dropped past this)")
        .flag("batch",
              "sweep design/workload/trace lists (or 'all') through "
              "the parallel runner")
        .option("jobs", "0",
                "batch worker threads; 0 = WLCACHE_JOBS env or all "
                "cores")
        .option("cache-dir", "",
                "batch result-cache directory (empty = no cache)")
        .option("manifest", "", "write a batch manifest JSON here")
        .flag("no-progress", "suppress batch progress on stderr");
    if (!args.parse(argc, argv))
        return 1;

    checkFloor(args, "scale", nvp::specFields(), "scale");
    checkFloor(args, "capacitor", nvp::configFields(),
               "platform.capacitance_f");
    checkFloor(args, "maxline", nvp::configFields(), "wl.maxline");

    const bool debug = !args.get("debug").empty();
    std::uint32_t debug_tracks = 0;
    std::string err;
    if (!telemetry::parseTracks(args.get("debug"), debug_tracks, &err))
        fatal("--debug: %s", err.c_str());
    if (args.getFlag("batch")) {
        if (debug)
            fatal("--debug streams one run's timeline, not a --batch "
                  "sweep");
        // Single-run outputs: a batch has no one run to write.
        for (const char *opt : { "json", "timeline" })
            if (!args.get(opt).empty())
                fatal("--%s writes one run's output, not a --batch "
                      "sweep (use --cache-dir for per-run records)",
                      opt);
        if (args.getFlag("stats"))
            fatal("--stats dumps one run's statistics, not a --batch "
                  "sweep (use --cache-dir for per-run records)");
        return runBatch(args);
    }

    const nvp::DesignKind design = designOption(args.get("design"));
    bool no_failure = false;
    const energy::TraceKind kind =
        traceOption(args.get("trace"), no_failure);
    if (!workloads::findWorkload(args.get("workload")))
        fatal("unknown workload '%s' (see workloads/workloads.cc)",
              args.get("workload").c_str());

    nvp::SystemConfig cfg = nvp::SystemConfig::forDesign(design);
    applyCliConfig(args, cfg);

    const std::string tl_path = args.get("timeline");
    const std::string tl_format =
        util::toLower(args.get("timeline-format"));
    if (tl_format != "perfetto" && tl_format != "csv")
        fatal("--timeline-format must be perfetto or csv, got '%s'",
              args.get("timeline-format").c_str());
    std::unique_ptr<telemetry::TimelineBuffer> timeline;
    if (!tl_path.empty() || debug) {
        const long cap = args.getInt("timeline-capacity");
        if (cap < 1)
            fatal("--timeline-capacity must be >= 1");
        timeline = std::make_unique<telemetry::TimelineBuffer>(
            static_cast<std::size_t>(cap));
        cfg.timeline = timeline.get();
    }
    if (debug) {
        std::cerr << telemetry::kTimelineCsvHeader << '\n';
        timeline->setEcho(&std::cerr, debug_tracks);
    }

    const auto &trace = workloads::getTrace(
        args.get("workload"),
        static_cast<unsigned>(args.getInt("scale")),
        static_cast<std::uint64_t>(args.getInt("seed")));

    energy::TraceGenConfig tg;
    tg.seed = static_cast<std::uint64_t>(args.getInt("power-seed"));
    const auto power = energy::makeTrace(kind, tg);

    nvp::SystemSim sim(cfg, trace, power, no_failure);
    const auto r = sim.run();

    std::cout << "design:            " << nvp::designKindName(design)
              << "\nworkload:          " << r.workload << " ("
              << r.trace_events << " events, " << r.instructions
              << " instructions)"
              << "\nenvironment:       " << args.get("trace")
              << "\ncompleted:         "
              << (r.completed ? "yes" : "NO")
              << "\nexecution time:    "
              << util::fmtSeconds(r.total_seconds) << "  (on "
              << util::fmtSeconds(cyclesToSeconds(r.on_cycles))
              << ", off " << util::fmtSeconds(r.off_seconds) << ")"
              << "\npower failures:    " << r.outages
              << "\nenergy:            "
              << util::fmtEnergy(r.meter.total())
              << "\nnvm writes:        " << r.nvm_writes << " ("
              << r.nvm_bytes_written << " bytes)"
              << (cfg.nvm.track_wear
                      ? "\nnvm wear:          max " +
                            std::to_string(r.nvm_device.wear_max) +
                            " writes/line, headroom " +
                            std::to_string(r.nvm_device.lifetime_headroom) +
                            ", write p99 " +
                            util::fmtDouble(r.nvm_device.write_p99_latency,
                                            0) +
                            " cycles"
                      : "")
              << "\nload hit rate:     "
              << util::fmtDouble(100.0 * r.dcache_load_hit_rate, 2)
              << "%"
              << "\nstore stalls:      " << r.store_stall_cycles
              << " cycles\n";
    if (nvp::isWlFamily(design)) {
        std::cout << "wl reconfigs:      " << r.wl.reconfigurations
                  << " (maxline " << r.wl.maxline_min_seen << ".."
                  << r.wl.maxline_max_seen << ", pred-acc "
                  << util::fmtDouble(100.0 * r.wl.prediction_accuracy, 1)
                  << "%)"
                  << "\nwl dirty@ckpt:     "
                  << util::fmtDouble(r.wl.avg_dirty_at_ckpt, 2)
                  << "\nwl dyn raises:     " << r.wl.dyn_maxline_raises
                  << "\n";
    }
    if (cfg.validate_consistency) {
        std::cout << "consistency:       " << r.consistency_checks
                  << " checks, " << r.consistency_violations
                  << " violations, final image "
                  << (r.final_state_correct ? "correct" : "WRONG")
                  << "\n";
    }
    if (args.getFlag("stats")) {
        std::cout << "\n--- component statistics ---\n";
        sim.dumpStats(std::cout);
    }
    if (!args.get("json").empty()) {
        std::ofstream out(args.get("json"));
        if (!out)
            fatal("cannot write '%s'", args.get("json").c_str());
        nvp::writeRunResultJson(out, r);
        std::cout << "run record written to " << args.get("json")
                  << "\n";
    }
    if (!tl_path.empty()) {
        std::ofstream out(tl_path);
        if (!out)
            fatal("cannot write '%s'", tl_path.c_str());
        telemetry::ExportMeta meta;
        meta.design = nvp::designKindName(design);
        meta.workload = r.workload;
        if (tl_format == "csv")
            telemetry::writeTimelineCsv(out, *timeline);
        else
            telemetry::writePerfettoJson(out, *timeline, meta);
        std::cout << "timeline (" << timeline->size() << " events, "
                  << timeline->droppedTotal()
                  << " dropped) written to " << tl_path << "\n";
    }
    return r.completed ? 0 : 2;
}
