/**
 * @file
 * Filesystem helpers shared by every component that publishes
 * artifacts into a directory other processes may be reading or
 * writing concurrently (result cache, run manifests).
 *
 * Two primitives cover all of them:
 *
 *  - FileLock: an RAII advisory lock (flock(2)) on a sentinel file.
 *    Writers serialize on it; readers never take it — the atomic
 *    publish below guarantees a reader only ever observes complete
 *    files, so the read path stays lock-free.
 *
 *  - writeFileAtomic: write to `<name>.tmp.<pid>.<seq>` in the target
 *    directory, then rename(2) into place.  The temp name is unique
 *    across *processes* (pid) and across threads within a process
 *    (a process-wide atomic sequence), so concurrent writers of the
 *    same entry cannot collide; the loser's rename simply replaces
 *    the winner's identical content.
 */

#ifndef WLCACHE_UTIL_FS_HH
#define WLCACHE_UTIL_FS_HH

#include <string>

namespace wlcache {
namespace util {

/**
 * RAII advisory file lock.  Opens (creating if needed) `path` and
 * holds a flock(2) lock on it until destruction.  Advisory: only
 * cooperating FileLock users are excluded, which is exactly the
 * artifact-store contract — readers do not lock.
 */
class FileLock
{
  public:
    FileLock() = default;
    ~FileLock() { unlock(); }

    FileLock(FileLock &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    FileLock &operator=(FileLock &&other) noexcept;

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** Block until the exclusive lock on `path` is held. */
    bool lockExclusive(const std::string &path);

    /**
     * Try to take the exclusive lock without blocking.  Returns
     * false (without holding anything) if another holder exists.
     */
    bool tryLockExclusive(const std::string &path);

    /** Release early; harmless if not held. */
    void unlock();

    bool held() const { return fd_ >= 0; }

  private:
    bool open(const std::string &path);

    int fd_ = -1;
};

/** Slurp a file; false if it cannot be opened. */
bool readFileText(const std::string &path, std::string &out);

/**
 * Atomically publish `data` as `final_path` (which must live inside
 * `dir`; the rename is same-filesystem by construction).  Creates
 * `dir` if needed.  On failure the temp file is removed, a warning
 * (or `*err`) describes why, and `final_path` is untouched.
 */
bool writeFileAtomic(const std::string &dir,
                     const std::string &final_path,
                     const std::string &data,
                     std::string *err = nullptr);

} // namespace util
} // namespace wlcache

#endif // WLCACHE_UTIL_FS_HH
