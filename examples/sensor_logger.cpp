/**
 * @file
 * Domain example: a battery-less sensor logger — the IoT scenario
 * the paper's introduction motivates. The "firmware" samples a
 * sensor, filters the readings, maintains a ring-buffer log and
 * running statistics in NVM-backed memory, and must never lose or
 * corrupt a committed record no matter when the harvested power
 * fails. The example builds the firmware as a workload against
 * GuestEnv, runs it on a WL-Cache NVP across an unstable RF
 * environment, and verifies the log survives bit-exact.
 *
 * Usage: sensor_logger [samples]
 */

#include <cstdlib>
#include <iostream>

#include "energy/power_trace.hh"
#include "nvp/system.hh"
#include "util/strings.hh"
#include "workloads/guest_env.hh"
#include "workloads/workloads.hh"

using namespace wlcache;
using workloads::GArray;
using workloads::GuestEnv;

namespace {

/** The sensor-logger firmware: sample -> EMA filter -> log + stats. */
void
sensorFirmware(GuestEnv &env, unsigned samples)
{
    GArray<std::int32_t> ring(env, 1024);        // log ring buffer
    GArray<std::uint32_t> header(env, 4);        // head, count, crc, x
    GArray<std::int32_t> stats(env, 4);          // min, max, sum lo/hi
    GArray<std::int32_t> calib(env, 64);         // calibration LUT

    for (unsigned i = 0; i < 64; ++i)
        calib.initAt(i, static_cast<std::int32_t>(i * 3 - 90));
    header.initAt(0, 0);
    header.initAt(1, 0);
    header.initAt(2, 0);
    header.initAt(3, 0);
    stats.initAt(0, INT32_MAX);
    stats.initAt(1, INT32_MIN);
    stats.initAt(2, 0);
    stats.initAt(3, 0);

    std::int32_t ema = 0;
    std::uint32_t crc = 0xffffffffu;
    for (unsigned i = 0; i < samples; ++i) {
        // "Read the sensor": a deterministic noisy waveform.
        const std::int32_t raw = static_cast<std::int32_t>(
            512.0 * (1.0 + 0.8 * env.rng().nextGaussian()));
        env.compute(6);

        // Calibrate via the LUT and smooth with an EMA filter.
        const std::int32_t cal =
            raw + calib.get(static_cast<std::size_t>(raw & 63));
        ema = ema + ((cal - ema) >> 3);
        env.compute(8);

        // Commit the record: ring slot, then header, then stats.
        const std::uint32_t head = header.get(0);
        ring.set(head, ema);
        header.set(0, (head + 1) & 1023);
        header.set(1, header.get(1) + 1);
        env.compute(5);

        if (ema < stats.get(0))
            stats.set(0, ema);
        if (ema > stats.get(1))
            stats.set(1, ema);
        stats.set(2, stats.get(2) + ema);
        env.compute(7);

        // Rolling CRC over committed records (integrity check).
        crc ^= static_cast<std::uint32_t>(ema);
        for (int b = 0; b < 4; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1)));
        env.compute(10);
        if ((i & 63) == 63)
            header.set(2, crc);
    }
    header.set(2, crc);
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned samples =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 30000;

    std::cout << "Recording sensor-logger firmware ("
              << samples << " samples)...\n";
    GuestEnv env(/*seed=*/2026);
    sensorFirmware(env, samples);
    env.finish();

    workloads::BuiltTrace trace;
    trace.name = "sensor_logger";
    trace.seed = 2026;
    trace.events = env.trace();
    trace.image_base = env.dataBase();
    trace.initial_image = env.initialImage();
    trace.final_image = env.finalImage();

    std::cout << "  " << trace.events.size() << " memory events, "
              << trace.totalInstructions() << " instructions, "
              << util::fmtDouble(100.0 * trace.storeFraction(), 1)
              << "% stores\n\n";

    // Run it on the WL-Cache NVP through the most unstable RF
    // environment, with the crash-consistency oracle armed.
    nvp::SystemConfig cfg =
        nvp::SystemConfig::forDesign(nvp::DesignKind::WL);
    cfg.validate_consistency = true;
    cfg.check_load_values = true;
    const energy::PowerTrace power =
        energy::makeTrace(energy::TraceKind::RfMementos);

    nvp::SystemSim sim(cfg, trace, power);
    const auto r = sim.run();

    std::cout << "Survived " << r.outages
              << " power failures in "
              << util::fmtSeconds(r.total_seconds) << "\n";
    std::cout << "Recovery-point consistency checks: "
              << r.consistency_checks << ", violations: "
              << r.consistency_violations << "\n";
    std::cout << "Load-value mismatches: " << r.load_value_mismatches
              << "\n";
    std::cout << "Final log image (ring + header + CRC) intact: "
              << (r.final_state_correct ? "YES" : "NO") << "\n";

    const bool ok = r.completed && r.final_state_correct &&
        r.consistency_violations == 0 && r.load_value_mismatches == 0;
    std::cout << (ok ? "\nSensor log is crash consistent.\n"
                     : "\nFAILURE: log corrupted.\n");
    return ok ? 0 : 1;
}
