/**
 * @file
 * Reproduces the paper's §6.6 adaptation statistics for WL-Cache
 * under Power Traces 1 and 2: number of maxline reconfigurations,
 * the observed maxline range, energy-source prediction accuracy,
 * dirty lines and write-backs per power-on period, and the pipeline
 * stall share of execution time. (Paper: ~11-12 reconfigurations,
 * maxline range 2..6, >98% prediction accuracy, 6/3 and 6/2
 * dirty-lines/write-backs, stalls <1%.)
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "sim/logging.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace wlcache;
using namespace wlcache::bench;

int
main()
{
    setQuiet(true);
    std::cout << "=== Section 6.6: WL-Cache adaptive management "
                 "statistics ===\n";
    util::TextTable t;
    t.header({ "trace", "reconfigs", "maxline-min", "maxline-max",
               "pred-acc%", "dirty@ckpt", "wb/period", "stall%",
               "outages" });

    const energy::TraceKind traces[] = { energy::TraceKind::RfHome,
                                         energy::TraceKind::RfOffice };
    for (const auto tk : traces) {
        std::vector<nvp::ExperimentSpec> specs;
        for (const auto &app : appNames()) {
            nvp::ExperimentSpec s;
            s.workload = app;
            s.power = tk;
            s.design = nvp::DesignKind::WL;
            specs.push_back(std::move(s));
        }
        const auto results = runBenchBatch(specs);

        std::vector<double> reconfigs, accs, dirty, wbs, stalls,
            outages;
        unsigned ml_min = 99, ml_max = 0;
        for (const auto &r : results) {
            reconfigs.push_back(r.wl.reconfigurations);
            accs.push_back(100.0 * r.wl.prediction_accuracy);
            dirty.push_back(r.wl.avg_dirty_at_ckpt);
            wbs.push_back(r.wl.writebacks_per_on_period);
            outages.push_back(static_cast<double>(r.outages));
            stalls.push_back(r.on_cycles
                                 ? 100.0 *
                                     static_cast<double>(
                                         r.store_stall_cycles) /
                                     static_cast<double>(r.on_cycles)
                                 : 0.0);
            ml_min = std::min(ml_min, r.wl.maxline_min_seen);
            ml_max = std::max(ml_max, r.wl.maxline_max_seen);
        }
        t.row({ energy::traceKindName(tk),
                util::fmtDouble(util::mean(reconfigs), 1),
                std::to_string(ml_min), std::to_string(ml_max),
                util::fmtDouble(util::mean(accs), 1),
                util::fmtDouble(util::mean(dirty), 1),
                util::fmtDouble(util::mean(wbs), 1),
                util::fmtDouble(util::mean(stalls), 2),
                util::fmtDouble(util::mean(outages), 1) });
    }
    t.print(std::cout);
    return 0;
}
