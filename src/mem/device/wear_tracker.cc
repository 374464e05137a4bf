#include "mem/device/wear_tracker.hh"

#include <limits>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

WearTracker::WearTracker(std::uint64_t total_lines,
                         std::uint64_t endurance_writes)
    : total_lines_(total_lines), endurance_writes_(endurance_writes),
      shards_((total_lines + kLinesPerShard - 1) / kLinesPerShard)
{
    wlc_assert(total_lines_ > 0);
    wlc_assert(endurance_writes_ > 0);
}

void
WearTracker::recordLine(std::uint64_t line)
{
    wlc_assert(line < total_lines_, "wear line %llu out of range",
               static_cast<unsigned long long>(line));
    std::vector<std::uint32_t> &shard = shards_[line / kLinesPerShard];
    if (shard.empty())
        shard.assign(kLinesPerShard, 0);
    std::uint32_t &count = shard[line % kLinesPerShard];
    if (count == 0)
        ++lines_touched_;
    if (count < std::numeric_limits<std::uint32_t>::max())
        ++count;
    ++total_writes_;
    if (count > max_wear_)
        max_wear_ = count;
}

std::uint64_t
WearTracker::lineWear(std::uint64_t line) const
{
    wlc_assert(line < total_lines_);
    const std::vector<std::uint32_t> &shard =
        shards_[line / kLinesPerShard];
    return shard.empty() ? 0 : shard[line % kLinesPerShard];
}

void
WearTracker::reset()
{
    for (auto &shard : shards_)
        shard.clear();
    max_wear_ = 0;
    lines_touched_ = 0;
    total_writes_ = 0;
}

void
WearTracker::ioState(StateIo &io)
{
    io.check(total_lines_, "wear tracker geometry (lines)");
    io.check(endurance_writes_, "wear tracker geometry (endurance)");
    io.u64(max_wear_);
    io.u64(lines_touched_);
    io.u64(total_writes_);
    // Allocated shards only, in index order: the byte stream is a
    // deterministic function of the wear state.
    std::vector<std::uint64_t> allocated;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (io.loading())
            shards_[i].clear();
        else if (!shards_[i].empty())
            allocated.push_back(i);
    }
    io.seq(allocated, [&](std::uint64_t &idx) {
        io.u64(idx);
        wlc_assert(idx < shards_.size(),
                   "wear shard index out of range");
        if (io.loading())
            shards_[idx].assign(kLinesPerShard, 0);
        io.bytes(shards_[idx].data(),
                 kLinesPerShard * sizeof(std::uint32_t));
    });
}

} // namespace mem
} // namespace wlcache
