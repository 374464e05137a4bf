#include "telemetry/exporters.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <vector>

namespace wlcache {
namespace telemetry {

namespace {

/** Per-track Perfetto tid; 0 is reserved so tids start at 1. */
int
trackTid(Track t)
{
    return static_cast<int>(t) + 1;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

/** Cycle (ns) as trace-event ts (µs), exactly 3 decimals. */
std::string
tsMicros(Cycle cycle)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u",
                  cycle / 1000, static_cast<unsigned>(cycle % 1000));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

class EventList
{
  public:
    explicit EventList(std::ostream &os) : os_(os) {}

    /** Emit one raw trace-event object body (without braces). */
    void emit(const std::string &body)
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        os_ << "    {" << body << "}";
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
emitMetadata(EventList &out, const ExportMeta &meta)
{
    out.emit("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             "\"tid\":0,\"args\":{\"name\":\"wlcache " +
             jsonEscape(meta.design) + "/" +
             jsonEscape(meta.workload) + "\"}");
    for (std::size_t i = 0; i < kNumTracks; ++i) {
        const Track t = static_cast<Track>(i);
        out.emit("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":" + std::to_string(trackTid(t)) +
                 ",\"args\":{\"name\":\"" +
                 std::string(trackName(t)) + "\"}");
        // Force track order to match the Track enum, not first-use.
        out.emit("\"name\":\"thread_sort_index\",\"ph\":\"M\","
                 "\"pid\":1,\"tid\":" + std::to_string(trackTid(t)) +
                 ",\"args\":{\"sort_index\":" + std::to_string(i) +
                 "}");
    }
}

void
emitInstant(EventList &out, const TimelineEvent &ev)
{
    out.emit("\"name\":\"" + std::string(eventTypeName(ev.type)) +
             "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" +
             std::to_string(trackTid(eventTrack(ev.type))) +
             ",\"ts\":" + tsMicros(ev.cycle) +
             ",\"args\":{\"comp\":\"" + jsonEscape(ev.comp) +
             "\",\"a0\":" + std::to_string(ev.a0) +
             ",\"a1\":" + std::to_string(ev.a1) +
             ",\"v\":" + num(ev.v) +
             ",\"cycle\":" + std::to_string(ev.cycle) +
             ",\"seq\":" + std::to_string(ev.seq) + "}");
}

void
emitFrame(EventList &out, std::uint64_t index, Cycle begin, Cycle end)
{
    if (end < begin)
        return;
    out.emit("\"name\":\"power_on#" + std::to_string(index) +
             "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(trackTid(Track::Power)) +
             ",\"ts\":" + tsMicros(begin) +
             ",\"dur\":" + tsMicros(end - begin) +
             ",\"args\":{\"begin_cycle\":" + std::to_string(begin) +
             ",\"end_cycle\":" + std::to_string(end) + "}");
}

void
emitCounter(EventList &out, const char *name, Cycle cycle,
            const char *series, const std::string &value)
{
    out.emit("\"name\":\"" + std::string(name) +
             "\",\"ph\":\"C\",\"pid\":1,\"ts\":" + tsMicros(cycle) +
             ",\"args\":{\"" + series + "\":" + value + "}");
}

/**
 * Power-on intervals reconstructed from the event stream: the span
 * from run start (or each OutageEnd) to the next OutageBegin (or the
 * last held event) is one frame. Works on a wrapped ring too — the
 * first frame then just starts at the oldest held event.
 */
void
emitPowerFrames(EventList &out, const TimelineBuffer &tl)
{
    if (tl.size() == 0)
        return;
    bool have_begin = false;
    Cycle begin = 0;
    Cycle last = 0;
    std::uint64_t index = 0;
    bool saw_any = false;
    tl.forEach([&](const TimelineEvent &ev) {
        if (!saw_any) {
            saw_any = true;
            have_begin = true;
            begin = ev.cycle;
        }
        last = ev.cycle;
        if (ev.type == EventType::OutageBegin) {
            if (have_begin)
                emitFrame(out, index++, begin, ev.cycle);
            have_begin = false;
        } else if (ev.type == EventType::OutageEnd) {
            have_begin = true;
            begin = ev.cycle;
        }
    });
    if (have_begin)
        emitFrame(out, index, begin, last);
}

void
emitCounters(EventList &out, const TimelineBuffer &tl)
{
    tl.forEach([&](const TimelineEvent &ev) {
        switch (ev.type) {
          case EventType::DqInsert:
          case EventType::DqClean:
          case EventType::DqStale:
            // a1 carries the dirty count after the operation.
            emitCounter(out, "dirty_lines", ev.cycle, "dirty",
                        std::to_string(ev.a1));
            break;
          case EventType::CapThreshold:
          case EventType::OutageBegin:
          case EventType::OutageEnd:
            // v carries the capacitor voltage at the crossing.
            emitCounter(out, "voltage", ev.cycle, "volts",
                        num(ev.v));
            break;
          default:
            break;
        }
    });
}

} // anonymous namespace

void
writePerfettoJson(std::ostream &os, const TimelineBuffer &tl,
                  const ExportMeta &meta)
{
    os << "{\n  \"traceEvents\": [\n";
    EventList out(os);
    emitMetadata(out, meta);
    tl.forEach([&out](const TimelineEvent &ev) {
        emitInstant(out, ev);
    });
    emitPowerFrames(out, tl);
    emitCounters(out, tl);
    os << "\n  ],\n";
    os << "  \"displayTimeUnit\": \"ns\",\n";
    os << "  \"otherData\": {\n";
    os << "    \"schema_version\": " << kTimelineSchemaVersion
       << ",\n";
    os << "    \"design\": \"" << jsonEscape(meta.design) << "\",\n";
    os << "    \"workload\": \"" << jsonEscape(meta.workload)
       << "\",\n";
    os << "    \"events_recorded\": " << tl.totalRecorded() << ",\n";
    os << "    \"events_held\": " << tl.size() << ",\n";
    os << "    \"events_dropped\": " << tl.droppedTotal() << ",\n";
    os << "    \"dropped_by_type\": {";
    bool first = true;
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        const EventType t = static_cast<EventType>(i);
        if (tl.dropped(t) == 0)
            continue;
        os << (first ? "" : ", ") << "\"" << eventTypeName(t)
           << "\": " << tl.dropped(t);
        first = false;
    }
    os << "}\n  }\n}\n";
}

void
writeTimelineCsv(std::ostream &os, const TimelineBuffer &tl)
{
    os << "# schema_version=" << kTimelineSchemaVersion
       << " recorded=" << tl.totalRecorded()
       << " dropped=" << tl.droppedTotal() << "\n";
    os << kTimelineCsvHeader << '\n';
    tl.forEach([&os](const TimelineEvent &ev) {
        writeTimelineCsvRow(os, ev);
    });
}

void
writeTimelineCsvRow(std::ostream &os, const TimelineEvent &ev)
{
    os << std::to_string(ev.seq) + ',' + std::to_string(ev.cycle) + ',' +
            eventTypeName(ev.type) + ',' +
            trackName(eventTrack(ev.type)) + ',' + ev.comp + ',' +
            std::to_string(ev.a0) + ',' + std::to_string(ev.a1) + ',' +
            num(ev.v) + '\n';
}

} // namespace telemetry
} // namespace wlcache
