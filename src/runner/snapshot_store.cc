#include "runner/snapshot_store.hh"

#include <cstdint>
#include <filesystem>
#include <system_error>
#include <vector>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "util/fs.hh"

namespace wlcache {
namespace runner {

namespace fs = std::filesystem;

namespace {

/** Snapshot-set file magic: "WLSS" little-endian. */
constexpr std::uint32_t kSetMagic = 0x53534c57u;
constexpr std::uint32_t kSetVersion = 1;

} // namespace

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

std::string
SnapshotStore::setPath(const std::string &key) const
{
    return (fs::path(dir_) / (key + ".snapset")).string();
}

bool
SnapshotStore::loadSet(const std::string &key,
                       nvp::SnapshotSet &out) const
{
    if (!enabled())
        return false;
    std::vector<std::uint8_t> blob;
    if (!util::readFileBytes(setPath(key), blob))
        return false;

    // Tolerant cursor: any corruption reads as a miss.
    std::size_t pos = 0;
    auto avail = [&](std::size_t n) { return blob.size() - pos >= n; };
    auto rd_u32 = [&](std::uint32_t &v) {
        if (!avail(4))
            return false;
        v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(blob[pos++]) << (8 * i);
        return true;
    };
    auto rd_u64 = [&](std::uint64_t &v) {
        if (!avail(8))
            return false;
        v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(blob[pos++]) << (8 * i);
        return true;
    };

    auto corrupt = [&]() {
        warn("snapshot store: discarding corrupted set %s",
             setPath(key).c_str());
        std::error_code ec;
        fs::remove(setPath(key), ec);
        return false;
    };

    std::uint32_t magic = 0, version = 0;
    if (!rd_u32(magic) || magic != kSetMagic)
        return corrupt();
    if (!rd_u32(version) || version != kSetVersion)
        return corrupt();

    nvp::SnapshotSet set;
    std::uint64_t interval = 0, count = 0;
    if (!rd_u64(interval) || !rd_u64(count))
        return corrupt();
    set.interval = interval;
    set.snaps.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t len = 0;
        if (!rd_u64(len) || !avail(len))
            return corrupt();
        const std::vector<std::uint8_t> entry(
            blob.begin() + static_cast<std::ptrdiff_t>(pos),
            blob.begin() + static_cast<std::ptrdiff_t>(pos + len));
        pos += static_cast<std::size_t>(len);
        nvp::SystemSnapshot snap;
        if (!nvp::decodeSnapshot(entry, snap))
            return corrupt();
        set.snaps.push_back(std::move(snap));
    }
    if (pos != blob.size())
        return corrupt();

    out = std::move(set);
    return true;
}

void
SnapshotStore::storeSet(const std::string &key,
                        const nvp::SnapshotSet &set) const
{
    if (!enabled())
        return;
    SnapshotWriter w;
    w.u32(kSetMagic);
    w.u32(kSetVersion);
    w.u64(set.interval);
    w.u64(set.snaps.size());
    for (const nvp::SystemSnapshot &snap : set.snaps)
        w.vecU8(nvp::encodeSnapshot(snap));
    std::string err;
    if (!util::writeFileAtomic(dir_, setPath(key), w.data(), &err))
        warn("snapshot store: %s", err.c_str());
}

} // namespace runner
} // namespace wlcache
