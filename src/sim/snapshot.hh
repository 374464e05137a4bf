/**
 * @file
 * Sectioned binary serializer for deterministic simulation snapshots.
 * Every field is written individually (no struct memcpy, so padding
 * bytes never leak into the stream) and doubles travel as their exact
 * IEEE-754 bit pattern, making the encoding bit-stable across runs.
 * Four-character section tags frame each component's state; a reader
 * that drifts out of sync panics on the first tag mismatch instead of
 * silently misinterpreting bytes.
 *
 * Components do not call the writer and reader directly: each has one
 * ioState(StateIo &) that lists its fields once, for both directions.
 */

#ifndef WLCACHE_SIM_SNAPSHOT_HH
#define WLCACHE_SIM_SNAPSHOT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace wlcache {

/** Append-only little-endian byte-stream writer. */
class SnapshotWriter
{
  public:
    /** Frame the fields that follow with a 4-character tag. */
    void section(const char *tag);

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Exact IEEE-754 bit pattern; NaN payloads round-trip. */
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }
    /** Length-prefixed UTF-8 bytes. */
    void str(const std::string &s);
    /** Raw bytes, no length prefix (caller knows the size). */
    void bytes(const void *p, std::size_t n);
    /** Length-prefixed byte vector. */
    void vecU8(const std::vector<std::uint8_t> &v);

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Mirror-image reader. Any mismatch — wrong section tag, stream
 * underflow — is a fatal error: a snapshot either restores exactly or
 * not at all.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::vector<std::uint8_t> &buf)
        : buf_(buf)
    {}

    /** Consume and verify a 4-character section tag. */
    void section(const char *tag);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    bool b() { return u8() != 0; }
    std::string str();
    void bytes(void *p, std::size_t n);
    std::vector<std::uint8_t> vecU8();

    /** True once every byte has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(std::size_t n) const;

    const std::vector<std::uint8_t> &buf_;
    std::size_t pos_ = 0;
};

/**
 * Direction-agnostic view of a snapshot stream: wraps a writer
 * (saving) or a reader (loading). Every method takes the field by
 * reference, writing it when saving and assigning it when loading, so
 * one ioState(StateIo &) per component is both its serializer and its
 * deserializer and the two can never drift apart. Work that only a
 * load needs (rebuilding an index, allocating an optional part) goes
 * under `if (io.loading())`.
 */
class StateIo
{
  public:
    explicit StateIo(SnapshotWriter &w) : w_(&w) {}
    explicit StateIo(SnapshotReader &r) : r_(&r) {}

    /**
     * Serialize @p obj. A saving StateIo only reads the fields it is
     * handed, so calling the non-const ioState() of a const object
     * cannot modify it.
     */
    template <class T, class... Args>
    static void
    save(const T &obj, SnapshotWriter &w, Args &&...args)
    {
        StateIo io(w);
        const_cast<T &>(obj).ioState(io, std::forward<Args>(args)...);
    }

    /** Restore @p obj from @p r. */
    template <class T, class... Args>
    static void
    load(T &obj, SnapshotReader &r, Args &&...args)
    {
        StateIo io(r);
        obj.ioState(io, std::forward<Args>(args)...);
    }

    bool loading() const { return r_ != nullptr; }

    void section(const char *tag);

    /**
     * Integer fields in a fixed-width slot. A field may be narrower
     * than its slot (a uint16_t saved as u32) or an enum.
     */
    template <class T>
    void u8(T &v) { slot(v, &SnapshotWriter::u8, &SnapshotReader::u8); }
    template <class T>
    void u32(T &v) { slot(v, &SnapshotWriter::u32, &SnapshotReader::u32); }
    template <class T>
    void u64(T &v) { slot(v, &SnapshotWriter::u64, &SnapshotReader::u64); }

    /** A bool, or an integer flag stored as one (loads 0 or 1). */
    template <class T>
    void
    b(T &v)
    {
        static_assert(std::is_integral_v<T>);
        if (r_)
            v = static_cast<T>(r_->b());
        else
            w_->b(v != T{});
    }

    void f64(double &v);
    void str(std::string &v);
    /** Raw bytes, no length prefix. */
    void bytes(void *p, std::size_t n);
    void vecU8(std::vector<std::uint8_t> &v);

    /**
     * Geometry, count or presence check: save @p expected; on load
     * read the saved value and fail unless it equals @p expected.
     * @p what names the quantity in the failure message.
     */
    void check(std::uint64_t expected, const char *what);
    void check(bool expected, const char *what);

    /**
     * Length-prefixed sequence (u64 count). On load @p v is cleared
     * and resized to the saved count; then @p each(element) runs for
     * every element.
     */
    template <class Seq, class Fn>
    void
    seq(Seq &v, Fn &&each)
    {
        std::uint64_t n = v.size();
        u64(n);
        if (r_) {
            v.clear();
            v.resize(n);
        }
        for (auto &e : v)
            each(e);
    }

    /**
     * Unordered set or map, saved as a length-prefixed sequence in
     * key order so the bytes do not depend on the hash-table layout;
     * on load it is cleared and refilled. @p each serializes one
     * entry: each(key) for a set, each(key, value) for a map.
     */
    template <class C, class Fn>
    void
    sorted(C &c, Fn &&each)
    {
        using Key = typename C::key_type;
        using Entry = typename Mutable<typename C::value_type>::type;
        std::vector<Entry> entries;
        if (!r_) {
            entries.assign(c.begin(), c.end());
            std::sort(entries.begin(), entries.end());
        }
        seq(entries, [&each](Entry &e) {
            if constexpr (std::is_same_v<Entry, Key>)
                each(e);
            else
                each(e.first, e.second);
        });
        if (r_) {
            c.clear();
            c.reserve(entries.size());
            c.insert(entries.begin(), entries.end());
        }
    }

  private:
    /** A container entry with a mutable key (maps store const keys). */
    template <class V> struct Mutable { using type = V; };
    template <class K, class V>
    struct Mutable<std::pair<const K, V>>
    {
        using type = std::pair<K, V>;
    };

    template <class T, class Slot>
    void
    slot(T &v, void (SnapshotWriter::*put)(Slot),
         Slot (SnapshotReader::*get)())
    {
        static_assert(std::is_enum_v<T> ||
                          (std::is_integral_v<T> &&
                           sizeof(T) <= sizeof(Slot)),
                      "field is wider than its snapshot slot");
        if (r_)
            v = static_cast<T>((r_->*get)());
        else
            (w_->*put)(static_cast<Slot>(v));
    }

    SnapshotWriter *w_ = nullptr;
    SnapshotReader *r_ = nullptr;
};

} // namespace wlcache

#endif // WLCACHE_SIM_SNAPSHOT_HH
