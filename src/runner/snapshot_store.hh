/**
 * @file
 * Content-addressed on-disk snapshot store, the result cache's
 * sibling. It holds interval-snapshot sets (a verification campaign's
 * golden-run fast-forward ladder) as `<dir>/<key>.snapset`: a framed
 * list of encodeSnapshot() blobs written atomically (temp file +
 * rename). Unreadable or corrupted entries read as misses and are
 * removed, never errors — the store is an accelerator, not a
 * dependency.
 */

#ifndef WLCACHE_RUNNER_SNAPSHOT_STORE_HH
#define WLCACHE_RUNNER_SNAPSHOT_STORE_HH

#include <string>

#include "nvp/snapshot.hh"

namespace wlcache {
namespace runner {

class SnapshotStore
{
  public:
    /**
     * @param dir Store directory; created on first store. An empty
     *            dir disables the store (all lookups miss).
     */
    explicit SnapshotStore(std::string dir);

    bool enabled() const { return !dir_.empty(); }

    /** Load the snapshot set stored under @p key. */
    bool loadSet(const std::string &key, nvp::SnapshotSet &out) const;

    /** Store an interval-snapshot set under @p key (atomic; last
        writer wins). */
    void storeSet(const std::string &key,
                  const nvp::SnapshotSet &set) const;

    /** Path of the snapshot-set entry for @p key. */
    std::string setPath(const std::string &key) const;

  private:
    std::string dir_;
};

} // namespace runner
} // namespace wlcache

#endif // WLCACHE_RUNNER_SNAPSHOT_STORE_HH
