/**
 * @file
 * Quickstart: build an energy-harvesting NVP system with a WL-Cache,
 * run one benchmark through a realistic RF power environment, and
 * print what happened — the five-minute tour of the library.
 *
 * Usage: quickstart [workload]
 */

#include <iostream>
#include <string>

#include "energy/power_trace.hh"
#include "nvp/system.hh"
#include "util/strings.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "sha";

    // 1. Record the workload once: a deterministic trace of memory
    //    references plus the initial/final memory images.
    const workloads::BuiltTrace &trace = workloads::getTrace(workload);
    std::cout << "Workload '" << workload << "': "
              << trace.events.size() << " memory events, "
              << trace.totalInstructions() << " instructions\n";

    // 2. Configure the platform: WL-Cache preset = paper Table 2
    //    (8 KB caches, 1 uF capacitor, DirtyQueue of 8, maxline 6,
    //    adaptive threshold management on).
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.validate_consistency = true;  // run the crash-safety oracle

    // 3. Pick an ambient energy environment (RF trace 1, "home").
    const energy::PowerTrace power =
        energy::makeTrace(energy::TraceKind::RfHome);

    // 4. Run to completion across however many power failures the
    //    environment causes.
    nvp::SystemSim sim(cfg, trace, power);
    const nvp::RunResult r = sim.run();

    std::cout << "\nCompleted: " << (r.completed ? "yes" : "NO")
              << "\nFinal NVM image correct: "
              << (r.final_state_correct ? "yes" : "NO")
              << "\nPower failures survived: " << r.outages
              << "\nConsistency checks at recovery points: "
              << r.consistency_checks << " ("
              << r.consistency_violations << " violations)"
              << "\nExecution time: "
              << util::fmtSeconds(r.total_seconds) << " ("
              << util::fmtSeconds(cyclesToSeconds(r.on_cycles))
              << " powered, " << util::fmtSeconds(r.off_seconds)
              << " recharging)"
              << "\nEnergy consumed: "
              << util::fmtEnergy(r.meter.total())
              << "\nNVM writes: " << r.nvm_writes
              << "\nLoad hit rate: "
              << util::fmtDouble(100.0 * r.dcache_load_hit_rate, 1)
              << "%\n";

    if (r.outages > 0) {
        std::cout << "\nWL-Cache adaptive runtime: "
                  << r.wl.reconfigurations << " maxline reconfigurations"
                  << ", maxline range [" << r.wl.maxline_min_seen << ", "
                  << r.wl.maxline_max_seen << "]"
                  << ", avg dirty lines at checkpoint "
                  << util::fmtDouble(r.wl.avg_dirty_at_ckpt, 1) << "\n";
    }
    return r.completed && r.final_state_correct &&
            r.consistency_violations == 0
        ? 0 : 1;
}
