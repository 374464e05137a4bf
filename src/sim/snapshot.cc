#include "sim/snapshot.hh"

#include <cstring>

#include "sim/logging.hh"

namespace wlcache {

void
SnapshotWriter::section(const char *tag)
{
    wlc_assert(tag && std::strlen(tag) == 4,
               "snapshot section tags are exactly 4 characters");
    bytes(tag, 4);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
SnapshotWriter::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
}

void
SnapshotWriter::vecU8(const std::vector<std::uint8_t> &v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

void
SnapshotReader::need(std::size_t n) const
{
    wlc_assert(pos_ + n <= buf_.size(),
               "snapshot stream underflow: need %zu at offset %zu "
               "of %zu",
               n, pos_, buf_.size());
}

void
SnapshotReader::section(const char *tag)
{
    wlc_assert(tag && std::strlen(tag) == 4);
    need(4);
    if (std::memcmp(buf_.data() + pos_, tag, 4) != 0) {
        char got[5] = { 0, 0, 0, 0, 0 };
        std::memcpy(got, buf_.data() + pos_, 4);
        panic("snapshot section mismatch at offset %zu: "
              "expected '%s', found '%s'",
              pos_, tag, got);
    }
    pos_ += 4;
}

std::uint8_t
SnapshotReader::u8()
{
    need(1);
    return buf_[pos_++];
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double
SnapshotReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
SnapshotReader::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char *>(buf_.data() + pos_),
                  n);
    pos_ += n;
    return s;
}

void
SnapshotReader::bytes(void *p, std::size_t n)
{
    need(n);
    // An empty block may come with a null @p p (an empty vector's
    // data()), which memcpy must not be given even for n == 0.
    if (n != 0)
        std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

std::vector<std::uint8_t>
SnapshotReader::vecU8()
{
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> v(buf_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
}

void
StateIo::section(const char *tag)
{
    if (r_)
        r_->section(tag);
    else
        w_->section(tag);
}

void
StateIo::f64(double &v)
{
    if (r_)
        v = r_->f64();
    else
        w_->f64(v);
}

void
StateIo::str(std::string &v)
{
    if (r_)
        v = r_->str();
    else
        w_->str(v);
}

void
StateIo::bytes(void *p, std::size_t n)
{
    if (r_)
        r_->bytes(p, n);
    else
        w_->bytes(p, n);
}

void
StateIo::vecU8(std::vector<std::uint8_t> &v)
{
    if (r_)
        v = r_->vecU8();
    else
        w_->vecU8(v);
}

void
StateIo::check(std::uint64_t expected, const char *what)
{
    std::uint64_t got = expected;
    u64(got);
    wlc_assert(got == expected,
               "%s mismatch: snapshot has %llu, this system has %llu",
               what, static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(expected));
}

void
StateIo::check(bool expected, const char *what)
{
    bool got = expected;
    b(got);
    wlc_assert(got == expected,
               "%s mismatch: snapshot has %d, this system has %d", what,
               got, expected);
}

} // namespace wlcache
