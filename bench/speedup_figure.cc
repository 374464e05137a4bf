#include "bench/speedup_figure.hh"

#include <iostream>

#include "util/stat_math.hh"

namespace wlcache {
namespace bench {

SpeedupTable
runSpeedupFigure(const std::string &title, const std::string &slug,
                 energy::TraceKind power, bool no_failure)
{
    const nvp::DesignKind designs[] = {
        nvp::DesignKind::NVCacheWB,
        nvp::DesignKind::VCacheWT,
        nvp::DesignKind::Replay,
        nvp::DesignKind::WL,
    };

    SpeedupTable table(title);
    table.seriesOrder({ "NVCache-WB", "VCache-WT", "ReplayCache",
                        "WL-Cache" });

    // Submit the whole figure — baseline plus every design, per app —
    // as one batch so the runner can execute it on all workers.
    std::vector<nvp::ExperimentSpec> specs;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec base;
        base.design = nvp::DesignKind::NvsramWB;
        base.workload = app;
        base.power = power;
        base.no_failure = no_failure;
        specs.push_back(base);

        for (const auto d : designs) {
            nvp::ExperimentSpec s = base;
            s.design = d;
            specs.push_back(s);
        }
    }
    const auto results = runBenchBatch(specs);

    std::size_t i = 0;
    for (const auto &app : appNames()) {
        const auto &baseline = results[i++];
        for (const auto d : designs) {
            table.set(nvp::designKindName(d), app,
                      nvp::speedupVs(results[i++], baseline));
        }
    }
    table.print();
    table.maybeWriteCsv(slug);
    return table;
}

double
associativityGmean(unsigned assoc, energy::TraceKind power, bool no_failure)
{
    std::vector<nvp::ExperimentSpec> specs;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec base;
        base.workload = app;
        base.power = power;
        base.no_failure = no_failure;

        nvp::ExperimentSpec nvsram = base;
        nvsram.design = nvp::DesignKind::NvsramWB;
        specs.push_back(nvsram);

        nvp::ExperimentSpec wl = base;
        wl.design = nvp::DesignKind::WL;
        wl.tweak = [assoc](nvp::SystemConfig &cfg) {
            cfg.dcache.assoc = assoc;
            cfg.icache.assoc = assoc;
            // Higher associativity compares more tags per access;
            // the data-array share of the access energy is fixed.
            const double scale = 0.85 + 0.075 * assoc;
            cfg.dcache.access_energy_read *= scale;
            cfg.dcache.access_energy_write *= scale;
            cfg.icache.access_energy_read *= scale;
        };
        specs.push_back(wl);
    }
    const auto results = runBenchBatch(specs);

    std::vector<double> speedups;
    for (std::size_t i = 0; i < results.size(); i += 2)
        speedups.push_back(
            nvp::speedupVs(results[i + 1], results[i]));
    return util::geoMean(speedups);
}

SpeedupTable
maxlineFigure()
{
    SpeedupTable table(
        "Figure 9: WL-Cache maxline sweep x cache replacement "
        "(speedup vs NVSRAM ideal), Power Trace 1");

    const std::vector<std::string> policies = { "FIFO", "LRU" };
    const std::vector<double> maxlines = { 2, 4, 6, 8 };
    const auto apps = appNames();

    std::vector<std::string> series;
    for (const auto &pol : policies)
        for (const double ml : maxlines)
            series.push_back(pol + "@" +
                             explore::numValue(ml).display());
    table.seriesOrder(series);

    explore::SweepSpec baseline;
    baseline.name = "fig9-baseline";
    baseline.base = { { "power", explore::strValue("trace1") },
                      { "design", explore::strValue("nvsram") } };
    explore::Axis app_axis{ "workload", {} };
    for (const auto &app : apps)
        app_axis.values.push_back(explore::strValue(app));
    baseline.axes = { app_axis };

    explore::SweepSpec wl;
    wl.name = "fig9-wl-grid";
    wl.base = { { "power", explore::strValue("trace1") },
                { "design", explore::strValue("wl") },
                { "adaptive.enabled", explore::boolValue(false) } };
    explore::Axis pol_axis{ "dcache.repl", {} };
    for (const auto &pol : policies)
        pol_axis.values.push_back(explore::strValue(pol));
    explore::Axis ml_axis{ "wl.maxline", {} };
    for (const double ml : maxlines)
        ml_axis.values.push_back(explore::numValue(ml));
    wl.axes = { app_axis, pol_axis, ml_axis };

    const auto base_results = runBenchSweep(baseline);
    const auto wl_results = runBenchSweep(wl);

    // Expansion order: first axis slowest — app-major, then policy,
    // then maxline.
    std::size_t i = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (const auto &pol : policies) {
            for (const double ml : maxlines) {
                const std::string name =
                    pol + "@" + explore::numValue(ml).display();
                table.set(name, apps[a],
                          nvp::speedupVs(wl_results[i++],
                                         base_results[a]));
            }
        }
    }
    return table;
}

TraceGmean
traceGmean(nvp::DesignKind design, energy::TraceKind power, bool dyn)
{
    std::vector<nvp::ExperimentSpec> specs;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec base;
        base.workload = app;
        base.power = power;

        nvp::ExperimentSpec nvsram = base;
        nvsram.design = nvp::DesignKind::NvsramWB;
        specs.push_back(nvsram);

        nvp::ExperimentSpec s = base;
        s.design = design;
        if (dyn) {
            s.tweak = [](nvp::SystemConfig &cfg) {
                cfg.wl_dynamic = true;
            };
        }
        specs.push_back(s);
    }
    const auto results = runBenchBatch(specs);

    std::vector<double> speedups;
    double outages = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < results.size(); i += 2) {
        const auto &rb = results[i];
        const auto &r = results[i + 1];
        speedups.push_back(nvp::speedupVs(r, rb));
        outages += static_cast<double>(r.outages);
        ++n;
    }
    return { util::geoMean(speedups), outages / n };
}

} // namespace bench
} // namespace wlcache
