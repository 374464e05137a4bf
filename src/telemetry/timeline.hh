/**
 * @file
 * Cycle-stamped structured event timeline. Components record typed,
 * fixed-size records into a per-simulation ring buffer
 * (TimelineBuffer); when the ring wraps, the oldest events are
 * overwritten and a per-type drop counter remembers what was lost.
 * Recording is observational only — no timing or energy is charged —
 * and a disabled timeline (null pointer at the call site, see
 * WLC_TIMELINE) costs exactly one branch per call site.
 *
 * The buffer is exported after a run as a Chrome/Perfetto trace-event
 * JSON or a compact CSV (telemetry/exporters.hh), can echo the events
 * of chosen tracks as CSV rows while they are recorded
 * (`wlcache_sim --debug`), and the verify campaign engine attaches a
 * window of the last events before a divergence to its reports.
 */

#ifndef WLCACHE_TELEMETRY_TIMELINE_HH
#define WLCACHE_TELEMETRY_TIMELINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace wlcache {
namespace telemetry {

/**
 * Format version of the exported timeline (Perfetto `otherData` and
 * the CSV header carry it). Bump whenever the event taxonomy or the
 * meaning of a payload field changes, so downstream tooling (and the
 * CI schema gate) rejects traces it would misread.
 */
inline constexpr std::uint64_t kTimelineSchemaVersion = 4;

/** Typed timeline records (the event taxonomy, DESIGN.md §11). */
enum class EventType : std::uint8_t
{
    OutageBegin,    //!< Voltage fell to Vbackup; outage starts.
    OutageEnd,      //!< Recharge reached Von; power restored.
    Checkpoint,     //!< JIT checkpoint completed.
    Restore,        //!< Boot-time state restoration completed.
    DqInsert,       //!< DirtyQueue insertion (clean->dirty line).
    DqClean,        //!< Asynchronous cleaning issued.
    DqStale,        //!< Stale DirtyQueue entry dropped (§5.4).
    Eviction,       //!< Cache line evicted by a fill.
    NvmRead,        //!< Timed NVM read.
    NvmWrite,       //!< Timed NVM write.
    AdaptDecision,  //!< Boot-time maxline reconfiguration decision.
    CapThreshold,   //!< Capacitor threshold crossing (Vbackup/Von).
    CoreProgress,   //!< Sampled instruction-count progress marker.
    SnapshotTaken,  //!< Deterministic system snapshot captured.
    SnapshotResume, //!< Run resumed from a system snapshot.
    BankConflict,   //!< NVM access gated by pending bank work.
    QueueStall,     //!< NVM access stalled on a full bank queue.
    LogAppend,      //!< Journal record appended (mem/log/).
    LogReplay,      //!< Boot-time journal replay scan completed.
    LogCompact,     //!< Journal segment compacted (lines migrated).
};

/** Number of distinct event types (drop-counter array size). */
inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::LogCompact) + 1;

/** Stable lowercase name ("outage_begin", "dq_clean", ...). */
const char *eventTypeName(EventType t);

/** Export track an event type renders on (one Perfetto thread each). */
enum class Track : std::uint8_t
{
    Cache,
    Queue,
    Power,
    Nvm,
    Adapt,
    Core,
};

inline constexpr std::size_t kNumTracks =
    static_cast<std::size_t>(Track::Core) + 1;

Track eventTrack(EventType t);
const char *trackName(Track t);

/** Bit of @p t in a track set (bit i = Track i). */
inline constexpr std::uint32_t
trackBit(Track t)
{
    return 1u << static_cast<unsigned>(t);
}

inline constexpr std::uint32_t kAllTracks = (1u << kNumTracks) - 1;

/**
 * Parse a comma-separated track list ("queue,power", "all") into
 * @p mask: the inverse of trackName(), case-insensitive, empty items
 * skipped. On an unknown name, returns false with @p mask untouched
 * and sets @p err (if given) to a message naming it and the valid
 * names.
 */
bool parseTracks(const std::string &spec, std::uint32_t &mask,
                 std::string *err = nullptr);

/** Every name parseTracks() accepts, comma-separated. */
std::string trackNameList();

/**
 * One fixed-size timeline record. The payload fields are generic;
 * their meaning depends on the type (see DESIGN.md §11 for the full
 * table): @c a0 is typically an address, index, or old value; @c a1 a
 * count or new value; @c v a voltage, energy (J), or duration (s).
 */
struct TimelineEvent
{
    Cycle cycle = 0;
    std::uint64_t seq = 0;   //!< Global record order (tie-breaker).
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    double v = 0.0;
    const char *comp = "";   //!< Component name (static string).
    EventType type = EventType::OutageBegin;
};

/**
 * Fixed-capacity ring of TimelineEvents. All memory is allocated up
 * front; record() never allocates, so it is safe on the simulator's
 * hottest paths. Not thread-safe — one buffer belongs to exactly one
 * simulation instance (the runner gives every job its own).
 */
class TimelineBuffer
{
  public:
    /** @param capacity Ring slots (>= 1); allocated immediately. */
    explicit TimelineBuffer(std::size_t capacity = 65536);

    std::size_t capacity() const { return ring_.size(); }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return count_; }

    /** Every record() call ever made, including overwritten ones. */
    std::uint64_t totalRecorded() const { return seq_; }

    /** Events of type @p t overwritten by ring wrap-around. */
    std::uint64_t dropped(EventType t) const
    {
        return drops_[static_cast<std::size_t>(t)];
    }

    std::uint64_t droppedTotal() const;

    /** Append one record, overwriting the oldest when full; see setEcho. */
    void record(EventType type, Cycle cycle, const char *comp,
                std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                double v = 0.0);

    /**
     * From now on, write each event recorded on a track in @p tracks
     * to @p os as one CSV row (writeTimelineCsvRow), so the rows
     * survive ring wrap-around and a later panic. Null stops it.
     */
    void setEcho(std::ostream *os, std::uint32_t tracks)
    {
        echo_ = os;
        echo_tracks_ = tracks;
    }

    /** Visit held events oldest-to-newest. */
    void forEach(
        const std::function<void(const TimelineEvent &)> &fn) const;

    /** Held events oldest-to-newest (copy). */
    std::vector<TimelineEvent> snapshot() const;

    /**
     * The last (up to) @p k events stamped at or before @p cycle, in
     * chronological order — the "what led up to it" window the verify
     * campaign attaches to a first-divergence record.
     */
    std::vector<TimelineEvent> lastBefore(Cycle cycle,
                                          std::size_t k) const;

    /** Forget all events and drop counters (capacity unchanged). */
    void clear();

  private:
    std::vector<TimelineEvent> ring_;
    std::size_t head_ = 0;    //!< Next write slot.
    std::size_t count_ = 0;
    std::uint64_t seq_ = 0;
    std::array<std::uint64_t, kNumEventTypes> drops_{};
    std::ostream *echo_ = nullptr;
    std::uint32_t echo_tracks_ = 0;
};

} // namespace telemetry

/**
 * Record a timeline event when a buffer is attached. @p tl is a
 * `telemetry::TimelineBuffer *` that is null when telemetry is
 * disabled — the null check is the disabled path's entire cost.
 * Usage:
 *   WLC_TIMELINE(tl_, DqClean, now, "wl_cache", laddr, dirty);
 */
#define WLC_TIMELINE(tl, type, cycle, comp, ...)                          \
    do {                                                                  \
        if (tl)                                                           \
            (tl)->record(::wlcache::telemetry::EventType::type, cycle,    \
                         comp, ##__VA_ARGS__);                            \
    } while (0)

} // namespace wlcache

#endif // WLCACHE_TELEMETRY_TIMELINE_HH
