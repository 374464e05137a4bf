#include "telemetry/timeline.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/exporters.hh"
#include "util/strings.hh"

namespace wlcache {
namespace telemetry {

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::OutageBegin:   return "outage_begin";
      case EventType::OutageEnd:     return "outage_end";
      case EventType::Checkpoint:    return "checkpoint";
      case EventType::Restore:       return "restore";
      case EventType::DqInsert:      return "dq_insert";
      case EventType::DqClean:       return "dq_clean";
      case EventType::DqStale:       return "dq_stale";
      case EventType::Eviction:      return "eviction";
      case EventType::NvmRead:       return "nvm_read";
      case EventType::NvmWrite:      return "nvm_write";
      case EventType::AdaptDecision: return "adapt_decision";
      case EventType::CapThreshold:  return "cap_threshold";
      case EventType::CoreProgress:  return "core_progress";
      case EventType::SnapshotTaken:  return "snapshot_taken";
      case EventType::SnapshotResume: return "snapshot_resume";
      case EventType::BankConflict:   return "bank_conflict";
      case EventType::QueueStall:     return "queue_stall";
      case EventType::LogAppend:      return "log_append";
      case EventType::LogReplay:      return "log_replay";
      case EventType::LogCompact:     return "log_compact";
    }
    panic("unknown EventType %d", static_cast<int>(t));
}

Track
eventTrack(EventType t)
{
    switch (t) {
      case EventType::OutageBegin:
      case EventType::OutageEnd:
      case EventType::Checkpoint:
      case EventType::Restore:
      case EventType::CapThreshold:
      case EventType::SnapshotTaken:
      case EventType::SnapshotResume:
        return Track::Power;
      case EventType::DqInsert:
      case EventType::DqClean:
      case EventType::DqStale:
        return Track::Queue;
      case EventType::Eviction:
        return Track::Cache;
      case EventType::NvmRead:
      case EventType::NvmWrite:
      case EventType::BankConflict:
      case EventType::QueueStall:
      case EventType::LogAppend:
      case EventType::LogReplay:
      case EventType::LogCompact:
        return Track::Nvm;
      case EventType::AdaptDecision:
        return Track::Adapt;
      case EventType::CoreProgress:
        return Track::Core;
    }
    panic("unknown EventType %d", static_cast<int>(t));
}

const char *
trackName(Track t)
{
    switch (t) {
      case Track::Cache: return "cache";
      case Track::Queue: return "queue";
      case Track::Power: return "power";
      case Track::Nvm:   return "nvm";
      case Track::Adapt: return "adapt";
      case Track::Core:  return "core";
    }
    panic("unknown Track %d", static_cast<int>(t));
}

std::string
trackNameList()
{
    std::string out;
    for (std::size_t i = 0; i < kNumTracks; ++i)
        out += std::string(trackName(static_cast<Track>(i))) + ", ";
    return out + "all";
}

bool
parseTracks(const std::string &spec, std::uint32_t &mask,
            std::string *err)
{
    std::uint32_t out = 0;
    for (const auto &item : util::split(spec, ',')) {
        const std::string name = util::toLower(item);
        std::uint32_t bit = name == "all" ? kAllTracks : 0;
        for (std::size_t i = 0; i < kNumTracks; ++i)
            if (name == trackName(static_cast<Track>(i)))
                bit = trackBit(static_cast<Track>(i));
        if (!bit && !name.empty()) {
            if (err)
                *err = "unknown track '" + name + "' (valid: " +
                    trackNameList() + ")";
            return false;
        }
        out |= bit;
    }
    mask = out;
    return true;
}

TimelineBuffer::TimelineBuffer(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity))
{
}

std::uint64_t
TimelineBuffer::droppedTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t d : drops_)
        total += d;
    return total;
}

void
TimelineBuffer::record(EventType type, Cycle cycle, const char *comp,
                       std::uint64_t a0, std::uint64_t a1, double v)
{
    TimelineEvent &slot = ring_[head_];
    if (count_ == ring_.size()) {
        // Ring is full: this write overwrites the oldest event.
        ++drops_[static_cast<std::size_t>(slot.type)];
    } else {
        ++count_;
    }
    slot.cycle = cycle;
    slot.seq = seq_++;
    slot.a0 = a0;
    slot.a1 = a1;
    slot.v = v;
    slot.comp = comp;
    slot.type = type;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (echo_ && (echo_tracks_ & trackBit(eventTrack(type))))
        writeTimelineCsvRow(*echo_, slot);
}

void
TimelineBuffer::forEach(
    const std::function<void(const TimelineEvent &)> &fn) const
{
    // Oldest event sits at head_ when full, at 0 otherwise.
    const std::size_t start =
        count_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < count_; ++i)
        fn(ring_[(start + i) % ring_.size()]);
}

std::vector<TimelineEvent>
TimelineBuffer::snapshot() const
{
    std::vector<TimelineEvent> out;
    out.reserve(count_);
    forEach([&out](const TimelineEvent &ev) { out.push_back(ev); });
    return out;
}

std::vector<TimelineEvent>
TimelineBuffer::lastBefore(Cycle cycle, std::size_t k) const
{
    // Events are recorded in nondecreasing cycle order, so the window
    // is a contiguous suffix of everything stamped <= cycle.
    std::vector<TimelineEvent> hits;
    forEach([&hits, cycle](const TimelineEvent &ev) {
        if (ev.cycle <= cycle)
            hits.push_back(ev);
    });
    if (hits.size() > k)
        hits.erase(hits.begin(),
                   hits.begin() + (hits.size() - k));
    return hits;
}

void
TimelineBuffer::clear()
{
    head_ = 0;
    count_ = 0;
    seq_ = 0;
    drops_.fill(0);
}

} // namespace telemetry
} // namespace wlcache
