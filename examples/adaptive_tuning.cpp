/**
 * @file
 * Example: watch the adaptive runtime at work (paper §4). Runs the
 * same workload on WL-Cache in every energy environment and shows
 * how the boot-time controller moves maxline/waterline (and with
 * them Vbackup/Von) toward write-back behaviour when the source is
 * good and toward write-through behaviour when it is poor — and what
 * that buys compared to static thresholds.
 *
 * Usage: adaptive_tuning [workload]
 */

#include <iostream>
#include <string>

#include "nvp/experiment.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace wlcache;

namespace {

nvp::RunResult
runWl(const std::string &app, energy::TraceKind power, bool adaptive,
      bool dynamic)
{
    nvp::ExperimentSpec s;
    s.workload = app;
    s.power = power;
    s.design = nvp::DesignKind::WL;
    s.tweak = [adaptive, dynamic](nvp::SystemConfig &cfg) {
        cfg.adaptive.enabled = adaptive;
        cfg.wl_dynamic = dynamic;
    };
    return nvp::runExperiment(s);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "g721decode";

    std::cout << "Adaptive maxline management for '" << app
              << "' (static = fixed maxline 6):\n\n";
    util::TextTable t;
    t.header({ "environment", "static", "adaptive", "dynamic",
               "reconfigs", "ml-range", "pred-acc%", "outages" });

    const energy::TraceKind envs[] = {
        energy::TraceKind::RfHome,    energy::TraceKind::RfOffice,
        energy::TraceKind::RfMementos, energy::TraceKind::Solar,
        energy::TraceKind::Thermal,
    };
    for (const auto tk : envs) {
        const auto stat = runWl(app, tk, false, false);
        const auto adap = runWl(app, tk, true, false);
        const auto dyn = runWl(app, tk, true, true);
        t.row({ energy::traceKindName(tk),
                util::fmtSeconds(stat.total_seconds),
                util::fmtSeconds(adap.total_seconds),
                util::fmtSeconds(dyn.total_seconds),
                std::to_string(adap.wl.reconfigurations),
                std::to_string(adap.wl.maxline_min_seen) + ".." +
                    std::to_string(adap.wl.maxline_max_seen),
                util::fmtDouble(100.0 * adap.wl.prediction_accuracy, 1),
                std::to_string(adap.outages) });
    }
    t.print(std::cout);

    std::cout <<
        "\nReading the table: with a good source (solar/thermal) the\n"
        "controller holds a high maxline (write-back-like, few\n"
        "write-backs); as the source degrades (tr.1 -> tr.3) it dials\n"
        "maxline down, shrinking the JIT-checkpoint reservation so\n"
        "scarce energy goes to forward progress instead. 'dynamic'\n"
        "additionally raises maxline mid-interval when the capacitor\n"
        "happens to be full (paper Fig. 13a, WL-Cache(dyn)).\n";
    return 0;
}
