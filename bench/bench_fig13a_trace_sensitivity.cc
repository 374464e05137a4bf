/**
 * @file
 * Reproduces paper Figure 13(a): design comparison across all five
 * energy environments (RF traces 1-3, solar, thermal), including the
 * dynamically adapting WL-Cache(dyn) variant, plus the per-trace
 * outage counts the paper quotes (33/45/121/12/9 for their traces).
 */

#include <iostream>

#include "bench/speedup_figure.hh"
#include "sim/logging.hh"
#include "util/table.hh"

using namespace wlcache;
using namespace wlcache::bench;

int
main()
{
    setQuiet(true);
    std::cout << "=== Figure 13a: speedup vs NVSRAM(ideal) across "
                 "power traces ===\n";
    util::TextTable t;
    t.header({ "trace", "VCache-WT", "ReplayCache", "WL-Cache",
               "WL-Cache(dyn)", "WL-outages" });
    struct Env
    {
        const char *name;
        energy::TraceKind kind;
    };
    const Env envs[] = {
        { "tr.1(RF)", energy::TraceKind::RfHome },
        { "tr.2(RF)", energy::TraceKind::RfOffice },
        { "tr.3(RF)", energy::TraceKind::RfMementos },
        { "solar", energy::TraceKind::Solar },
        { "thermal", energy::TraceKind::Thermal },
    };
    for (const auto &e : envs) {
        const auto wt =
            traceGmean(nvp::DesignKind::VCacheWT, e.kind, false);
        const auto rp =
            traceGmean(nvp::DesignKind::Replay, e.kind, false);
        const auto wl = traceGmean(nvp::DesignKind::WL, e.kind, false);
        const auto dyn = traceGmean(nvp::DesignKind::WL, e.kind, true);
        t.rowDoubles(e.name, { wt.speedup, rp.speedup, wl.speedup,
                               dyn.speedup, wl.outages });
    }
    t.print(std::cout);
    std::cout << "\n(WL-outages: mean power failures per application "
                 "for WL-Cache; the paper's traces show "
                 "33/45/121/12/9.)\n";
    return 0;
}
