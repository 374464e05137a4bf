/**
 * @file
 * Fault-injection campaign driver: systematically force power
 * failures at chosen cycle points of a (design x workload) run and
 * diff the post-recovery persistent state against a golden
 * uninterrupted execution (src/verify/).
 *
 * Examples:
 *   # Stride-sample the whole run, 1000 points apart:
 *   wlcache_verify --design wl --workload sha --stride 1000
 *
 *   # Exhaustive window around a suspect region, then bisect:
 *   wlcache_verify --design wl --workload sha \
 *                  --window 40000:42000:10 --bisect
 *
 *   # Oracle self-test: a dropped JIT checkpoint must be detected
 *   # (exit status fails unless a divergence is found):
 *   wlcache_verify --design wl --workload sha --stride 500 \
 *                  --inject checkpoint-skip --expect divergent
 *
 * Campaigns fan out over the parallel runner, and under --trace none
 * each point run fast-forwards from a snapshot of the golden run; point
 * --cache-dir at a directory to make re-runs (and bisection probes)
 * nearly free.
 */

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "nvp/schema.hh"
#include "runner/runner.hh"
#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"
#include "verify/campaign.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

/** A cycle count from a --points/--window field, fatal() on junk. */
std::uint64_t
parseCycle(const std::string &text, const char *option)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        fatal("--%s: '%s' is not a cycle count", option, text.c_str());
    return v;
}

/** Parse "begin:end[:step]". */
bool
parseWindow(const std::string &arg, verify::CampaignConfig &cfg)
{
    const auto parts = util::split(arg, ':');
    if (parts.size() < 2 || parts.size() > 3)
        return false;
    cfg.has_window = true;
    cfg.window_begin = parseCycle(parts[0], "window");
    cfg.window_end = parseCycle(parts[1], "window");
    cfg.window_step =
        parts.size() == 3 ? parseCycle(parts[2], "window") : 1;
    return cfg.window_end > cfg.window_begin && cfg.window_step > 0;
}

std::vector<std::string>
expandList(const std::string &arg)
{
    std::vector<std::string> out;
    for (const auto &item : util::split(arg, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<std::uint64_t>
parsePoints(const std::string &arg)
{
    std::vector<std::uint64_t> out;
    for (const auto &tok : expandList(arg))
        out.push_back(parseCycle(tok, "points"));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "wlcache_verify",
        "forced-outage fault-injection campaigns with a golden-model "
        "differential oracle");
    const std::string design_names =
        util::join(nvp::designShortNames(), "|");
    const std::string power_names = util::join(nvp::powerShortNames(), "|");
    args.option("design", "wl", "comma list: " + design_names)
        .option("workload", "sha", "comma list of benchmark kernels")
        .option("trace", "none",
                "none (infinite power, forced point is the only "
                "outage) or trace1|trace2|trace3|solar|thermal "
                "(ambient outages in addition)")
        .option("points", "", "explicit outage cycles, comma list")
        .option("stride", "0",
                "stride-sample the run every N cycles")
        .option("window", "",
                "exhaustive window begin:end[:step] in cycles")
        .flag("bisect",
              "bisect below the first divergent point for the "
              "minimal failing cycle")
        .option("inject", "",
                "oracle self-test faults: comma list of "
                "checkpoint-skip,register-skip")
        .option("expect", "clean",
                "exit status checks campaigns are clean|divergent")
        .option("scale", "1", "workload input scale factor")
        .option("seed", "42", "workload input seed")
        .option("power-seed", "7", "power trace seed")
        .option("jobs", "0",
                "worker threads; 0 = WLCACHE_JOBS env or all cores")
        .option("cache-dir", "",
                "result-cache directory (empty = no cache)")
        .option("timeline-window", "64",
                "timeline events to attach around the first "
                "divergence (0 disables the extra traced re-run)")
        .option("step-mode", "skip_ahead",
                "run-loop energy integration: skip_ahead|percycle "
                "(reports are byte-identical either way; percycle is "
                "the slow reference loop, DESIGN.md sec. 15)")
        .option("json", "", "write the campaign report JSON here")
        .flag("progress", "per-job progress lines on stderr");
    if (!args.parse(argc, argv))
        return 1;

    energy::TraceKind kind = energy::TraceKind::Constant;
    bool no_failure = true;
    if (!nvp::powerFromShortName(args.get("trace"), kind, no_failure))
        fatal("unknown trace '%s' (valid: %s)",
              args.get("trace").c_str(), power_names.c_str());

    bool inject_ckpt = false, inject_regs = false;
    for (const auto &f : expandList(util::toLower(args.get("inject")))) {
        if (f == "checkpoint-skip")
            inject_ckpt = true;
        else if (f == "register-skip")
            inject_regs = true;
        else
            fatal("unknown fault '%s' (checkpoint-skip, "
                  "register-skip)", f.c_str());
    }

    const std::string expect = util::toLower(args.get("expect"));
    if (expect != "clean" && expect != "divergent")
        fatal("--expect must be clean or divergent");

    StepMode step_mode;
    if (!nvp::stepModeFromName(util::toLower(args.get("step-mode")),
                               step_mode))
        fatal("unknown --step-mode '%s' (percycle|skip_ahead)",
              args.get("step-mode").c_str());

    const auto designs = expandList(args.get("design"));
    const auto apps = expandList(args.get("workload"));
    if (designs.empty() || apps.empty())
        fatal("need at least one design and one workload");

    // Everything but the design and workload, checked before any
    // campaign starts.
    verify::CampaignConfig proto;
    proto.base.power = kind;
    proto.base.no_failure = no_failure;
    const long scale = args.getInt("scale");
    const double min_scale = nvp::fieldByKey(nvp::specFields(), "scale").min;
    if (scale < min_scale)
        fatal("--scale must be >= %g, got %ld", min_scale, scale);
    proto.base.scale = static_cast<unsigned>(scale);
    proto.base.workload_seed =
        static_cast<std::uint64_t>(args.getInt("seed"));
    proto.base.power_seed =
        static_cast<std::uint64_t>(args.getInt("power-seed"));
    proto.base.tweak = [step_mode](nvp::SystemConfig &cfg) {
        cfg.step_mode = step_mode;
    };
    proto.ambient = !no_failure;
    proto.points = parsePoints(args.get("points"));
    proto.stride = args.getCount("stride");
    if (!args.get("window").empty() &&
        !parseWindow(args.get("window"), proto))
        fatal("bad --window '%s' (begin:end[:step])",
              args.get("window").c_str());
    proto.bisect = args.getFlag("bisect");
    proto.inject_checkpoint_skip = inject_ckpt;
    proto.inject_register_skip = inject_regs;
    proto.jobs = static_cast<unsigned>(args.getCount("jobs"));
    proto.cache_dir = args.get("cache-dir");
    proto.timeline_window = args.getCount("timeline-window");
    proto.progress = args.getFlag("progress");

    runner::installInterruptHandlers();
    std::vector<std::string> report_jsons;
    bool all_ok = true;
    const bool want_divergent = expect == "divergent";

    for (const auto &design_name : designs) {
        nvp::DesignKind design;
        if (!nvp::designFromShortName(design_name, design))
            fatal("unknown design '%s' (valid: %s)",
                  design_name.c_str(), design_names.c_str());
        for (const auto &app : apps) {
            if (!workloads::findWorkload(app))
                fatal("unknown workload '%s'", app.c_str());

            verify::CampaignConfig cc = proto;
            cc.base.design = design;
            cc.base.workload = app;
            const verify::CampaignReport rep = verify::runCampaign(cc);
            if (runner::interrupted()) {
                std::cerr << "interrupted: no report written; re-run "
                             "to resume\n";
                return 130;
            }

            verify::writeCampaignSummary(std::cout, rep);
            std::ostringstream rj;
            writeCampaignReportJson(rj, rep);
            report_jsons.push_back(rj.str());
            if (!rep.golden_clean ||
                want_divergent != (rep.num_divergent > 0))
                all_ok = false;
        }
    }

    if (!args.get("json").empty()) {
        std::ofstream out(args.get("json"));
        if (!out)
            fatal("cannot write '%s'", args.get("json").c_str());
        out << "{\n  \"campaigns\": [\n" << util::join(report_jsons, ",\n")
            << "  ]\n}\n";
        std::cout << "campaign report written to "
                  << args.get("json") << "\n";
    }

    if (!all_ok)
        std::cout << "FAILED: expectation '" << expect
                  << "' not met by every campaign\n";
    return all_ok ? 0 : 2;
}
