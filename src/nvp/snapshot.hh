/**
 * @file
 * Deterministic whole-system snapshots. A SystemSnapshot captures the
 * complete mutable state of a SystemSim mid-run — core, caches,
 * capacitor, harvester phase, NVFF bank, RNGs, statistics, and a
 * copy-on-write NVM delta journal — such that resuming from it is
 * observationally identical to having executed the prefix cold: same
 * RunResult, same final-image digest, same post-resume timeline.
 *
 * Fault-injection campaigns pause the golden run at their points and
 * take a snapshot there, in memory, now and then; each injection point
 * fast-forwards past its (identical) prefix from one taken strictly
 * before it (verify::rungBefore), and at most two are held at once.
 */

#ifndef WLCACHE_NVP_SNAPSHOT_HH
#define WLCACHE_NVP_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace wlcache {
namespace nvp {

/** One captured system state, taken at an event-loop boundary. */
struct SystemSnapshot
{
    /**
     * Bump when the component serialization layout changes.
     * 2 = integer-attojoule energy state (meter/capacitor/harvester
     * sections became u64, harvester cursor moved to the cycle grid,
     * SYS2 carries the quantized backup level).
     * 4 = NVM row-buffer and log-journal counters in the RES section;
     * WL-Log designs append an NLOG journal section.
     * 5 = SYS2 drops ReplayCache's region-dirty byte set (derived from
     * the trace on demand) and NVSP drops the write-only background
     * write-back queue.
     * 6 = design-owned state: WL-family designs carry their adaptive
     * runtime (ADPT) inside their own section, the runtime-presence
     * byte is gone, and SYS2 ends with an "RGN " recovery point
     * (region start index, fetch stream) for region designs only.
     * 7 = SYS2 drops the unread double Vbackup energy level (the
     * quantized level drives the outage comparator).
     * 8 = the oracle's expected byte image is saved page by page
     * (page number, valid bitmap, page bytes) instead of as one
     * (address, byte) pair per tracked byte.
     * 9 = the I-cache is tag-only: its TAGS data block is empty and
     * its warm image holds line addresses without line bytes.
     */
    static constexpr std::uint32_t kFormatVersion = 9;

    /**
     * Resume-compatibility key: hash of every configuration and trace
     * property the captured state depends on (the resolved
     * SystemConfig with the forced-outage schedule and fault-injection
     * flags neutralized, plus the trace identity). restoreSnapshot()
     * refuses a snapshot whose key disagrees with the restoring
     * system's own.
     */
    std::string compat_key;

    /** Simulation cycle at capture (event-loop top). */
    Cycle cycle = 0;

    /** Trace events consumed at capture. */
    std::uint64_t event_index = 0;

    /** Sectioned component byte stream (sim/snapshot.hh framing). */
    std::vector<std::uint8_t> state;

    bool valid() const { return !state.empty(); }
};

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SNAPSHOT_HH
