#include "nvp/experiment.hh"

#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

bool
powerFromShortName(const std::string &name, energy::TraceKind &kind,
                   bool &no_failure)
{
    const std::string n = util::toLower(name);
    no_failure = n == "none" || n == "infinite";
    if (no_failure) {
        kind = energy::TraceKind::Constant;
        return true;
    }
    // "constant" is an energy::TraceKind but no ambient environment.
    return n != "constant" && energy::traceKindFromName(n, kind);
}

std::vector<std::string>
powerShortNames()
{
    using energy::TraceKind;
    std::vector<std::string> names;
    for (const TraceKind k : { TraceKind::RfHome, TraceKind::RfOffice,
                               TraceKind::RfMementos, TraceKind::Solar,
                               TraceKind::Thermal })
        names.push_back(energy::traceKindName(k));
    names.push_back("none");
    return names;
}

SystemConfig
resolveConfig(const ExperimentSpec &spec)
{
    SystemConfig cfg = SystemConfig::forDesign(spec.design);
    if (spec.tweak)
        spec.tweak(cfg);
    return cfg;
}

RunResult
runExperiment(const ExperimentSpec &spec, const RunOptions &opts)
{
    const SystemConfig cfg = resolveConfig(spec);

    const workloads::BuiltTrace &trace =
        workloads::getTrace(spec.workload, spec.scale,
                            spec.workload_seed);

    energy::TraceGenConfig tg;
    tg.seed = spec.power_seed;
    const energy::PowerTrace power =
        energy::makeTrace(spec.no_failure ? energy::TraceKind::Constant
                                          : spec.power,
                          tg);

    SystemSim sim(cfg, trace, power, spec.no_failure);
    return sim.run(opts);
}

double
speedupVs(const RunResult &x, const RunResult &baseline)
{
    wlc_assert(x.total_seconds > 0.0);
    return baseline.total_seconds / x.total_seconds;
}

} // namespace nvp
} // namespace wlcache
