#include "util/fs.hh"

#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace wlcache {
namespace util {

namespace fs = std::filesystem;

FileLock &
FileLock::operator=(FileLock &&other) noexcept
{
    if (this != &other) {
        unlock();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

bool
FileLock::open(const std::string &path)
{
    unlock();
    const fs::path dir = fs::path(path).parent_path();
    if (!dir.empty()) {
        std::error_code ec;
        fs::create_directories(dir, ec);
    }
    int fd;
    do {
        fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return false;
    fd_ = fd;
    return true;
}

bool
FileLock::lockExclusive(const std::string &path)
{
    if (!open(path))
        return false;
    int rc;
    do {
        rc = ::flock(fd_, LOCK_EX);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
        unlock();
        return false;
    }
    return true;
}

bool
FileLock::tryLockExclusive(const std::string &path)
{
    if (!open(path))
        return false;
    int rc;
    do {
        rc = ::flock(fd_, LOCK_EX | LOCK_NB);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
        unlock();
        return false;
    }
    return true;
}

void
FileLock::unlock()
{
    if (fd_ >= 0) {
        // close() drops the flock.
        ::close(fd_);
        fd_ = -1;
    }
}

bool
readFileText(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFileAtomic(const std::string &dir, const std::string &final_path,
                const std::string &data, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return fail("cannot create '" + dir + "': " + ec.message());

    // Pid makes the temp unique across processes, the sequence
    // number across threads within this process.
    static std::atomic<std::uint64_t> seq{0};
    std::ostringstream tmp_name;
    tmp_name << fs::path(final_path).filename().string() << ".tmp."
             << ::getpid() << "." << seq.fetch_add(1);
    const fs::path tmp = fs::path(dir) / tmp_name.str();
    {
        std::ofstream outf(tmp, std::ios::binary);
        if (!outf)
            return fail("cannot write '" + tmp.string() + "'");
        outf.write(data.data(), static_cast<std::streamsize>(data.size()));
        outf.flush();
        if (!outf) {
            fs::remove(tmp, ec);
            return fail("short write to '" + tmp.string() + "'");
        }
    }
    fs::rename(tmp, final_path, ec);
    if (ec) {
        std::error_code ec2;
        fs::remove(tmp, ec2);
        return fail("rename into '" + final_path +
                    "' failed: " + ec.message());
    }
    return true;
}

} // namespace util
} // namespace wlcache

