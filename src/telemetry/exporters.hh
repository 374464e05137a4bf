/**
 * @file
 * Timeline exporters: Chrome/Perfetto trace-event JSON (load the file
 * in ui.perfetto.dev or chrome://tracing) and a compact CSV for
 * scripted analysis. Both are pure functions of a TimelineBuffer —
 * they never mutate it and can be called repeatedly.
 */

#ifndef WLCACHE_TELEMETRY_EXPORTERS_HH
#define WLCACHE_TELEMETRY_EXPORTERS_HH

#include <iosfwd>
#include <string>

#include "telemetry/timeline.hh"

namespace wlcache {
namespace telemetry {

/** Run identity stamped into the exported trace. */
struct ExportMeta
{
    std::string design;
    std::string workload;
};

/**
 * Write the buffer as a Chrome trace-event JSON object. Tracks
 * (cache, queue, power, nvm, adapt, core) render as threads of one
 * process; every event becomes a thread-scoped instant; power-on
 * intervals render as duration ("X") frames on the power track; the
 * dirty-line count and capacitor voltage render as counter tracks.
 * `otherData.schema_version` carries kTimelineSchemaVersion for the
 * CI gate.
 */
void writePerfettoJson(std::ostream &os, const TimelineBuffer &tl,
                       const ExportMeta &meta);

/** The timeline CSV's header row (without the newline). */
inline constexpr const char *kTimelineCsvHeader =
    "seq,cycle,type,track,comp,a0,a1,v";

/**
 * Write the buffer as CSV: a `# schema_version=N` comment, the
 * kTimelineCsvHeader row, then one writeTimelineCsvRow() per event,
 * oldest first.
 */
void writeTimelineCsv(std::ostream &os, const TimelineBuffer &tl);

/** Write @p ev as one CSV row in a single stream write: the one row
 *  format, shared by writeTimelineCsv and TimelineBuffer's echo. */
void writeTimelineCsvRow(std::ostream &os, const TimelineEvent &ev);

} // namespace telemetry
} // namespace wlcache

#endif // WLCACHE_TELEMETRY_EXPORTERS_HH
