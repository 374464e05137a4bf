#include "cache/tag_array.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "util/stat_math.hh"

namespace wlcache {
namespace cache {

TagArray::TagArray(const CacheParams &params, bool line_data)
{
    params.validate();
    num_sets_ = params.numSets();
    assoc_ = params.assoc;
    line_bytes_ = params.line_bytes;
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes_));
    line_mask_ = static_cast<Addr>(line_bytes_) - 1;
    set_mask_ = num_sets_ - 1;
    repl_ = params.repl;
    const std::size_t n = static_cast<std::size_t>(num_sets_) * assoc_;
    addrs_.resize(n, 0);
    valid_.resize(n, 0);
    dirty_.resize(n, 0);
    touch_seq_.resize(n, 0);
    install_seq_.resize(n, 0);
    if (line_data)
        bytes_.resize(n * line_bytes_, 0);
    mru_way_.resize(num_sets_, 0);
}

void
TagArray::touchRepeated(const LineRef *refs, unsigned n,
                        std::uint64_t rounds)
{
    if (rounds == 0)
        return;
    // Every ref's last stamp comes from the final round; a ref listed
    // twice keeps its later position, as the sequential loop would.
    const std::uint64_t base = seq_ + (rounds - 1) * n;
    for (unsigned j = 0; j < n; ++j) {
        touch_seq_[index(refs[j])] = base + j + 1;
        mru_way_[refs[j].set] = refs[j].way;
    }
    seq_ = base + n;
}

bool
TagArray::probeSet(Addr laddr, std::uint32_t set, LineRef &ref) const
{
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const std::uint64_t *seqs = (repl_ == ReplPolicy::LRU
                                     ? touch_seq_.data()
                                     : install_seq_.data()) + base;
    std::uint32_t invalid = assoc_;
    std::uint32_t oldest = 0;
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        if (!valid_[base + way]) {
            if (invalid == assoc_)
                invalid = way;
        } else if (addrs_[base + way] == laddr) {
            ref = { set, way };
            return true;
        } else if (seqs[way] < seqs[oldest]) {
            oldest = way;
        }
    }
    // As victim(): the first invalid way, else the first way with
    // the smallest policy sequence (all ways are valid then).
    ref = { set, invalid < assoc_ ? invalid : oldest };
    return false;
}

LineRef
TagArray::victim(Addr addr) const
{
    const std::uint32_t set = setIndex(addr);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    // Prefer an invalid way.
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        if (!valid_[base + way])
            return { set, way };
    }
    // Otherwise the oldest by policy-relevant sequence number.
    const std::uint64_t *seqs =
        repl_ == ReplPolicy::LRU ? touch_seq_.data() : install_seq_.data();
    LineRef best{ set, 0 };
    std::uint64_t best_seq = UINT64_MAX;
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        const std::uint64_t s = seqs[base + way];
        if (s < best_seq) {
            best_seq = s;
            best = { set, way };
        }
    }
    return best;
}

void
TagArray::install(LineRef ref, Addr line_addr, const std::uint8_t *image)
{
    wlc_assert(lineAddrOf(line_addr) == line_addr,
               "install address not line aligned");
    wlc_assert(setIndex(line_addr) == ref.set,
               "install into the wrong set");
    const std::size_t i = index(ref);
    if (valid_[i] && dirty_[i]) {
        // Callers must write back or drop dirty victims first.
        panic("installing over a dirty line 0x%llx",
              static_cast<unsigned long long>(addrs_[i]));
    }
    addrs_[i] = line_addr;
    valid_[i] = 1;
    dirty_[i] = 0;
    touch_seq_[i] = ++seq_;
    install_seq_[i] = seq_;
    mru_way_[ref.set] = ref.way;
    if (bytes_.empty()) {
        wlc_assert(!image, "line image for a tag-only array");
        return;
    }
    std::uint8_t *dst = data(ref);
    if (image)
        std::memcpy(dst, image, line_bytes_);
    else
        std::memset(dst, 0, line_bytes_);
}

void
TagArray::setDirty(LineRef ref, bool dirty)
{
    const std::size_t i = index(ref);
    wlc_assert(valid_[i], "setDirty on invalid line");
    if ((dirty_[i] != 0) == dirty)
        return;
    dirty_[i] = dirty ? 1 : 0;
    if (dirty) {
        ++dirty_count_;
        if (dirty_count_ > dirty_high_water_)
            dirty_high_water_ = dirty_count_;
    } else {
        wlc_assert(dirty_count_ > 0);
        --dirty_count_;
    }
}

void
TagArray::invalidate(LineRef ref)
{
    const std::size_t i = index(ref);
    if (valid_[i] && dirty_[i]) {
        wlc_assert(dirty_count_ > 0);
        --dirty_count_;
    }
    valid_[i] = 0;
    dirty_[i] = 0;
}

void
TagArray::invalidateAll()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    dirty_count_ = 0;
}

void
TagArray::forEachValidLine(
    const std::function<void(LineRef, Addr, bool)> &fn) const
{
    for (std::uint32_t set = 0; set < num_sets_; ++set) {
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            const LineRef ref{ set, way };
            const std::size_t i = index(ref);
            if (valid_[i])
                fn(ref, addrs_[i], dirty_[i] != 0);
        }
    }
}

void
TagArray::ioState(StateIo &io)
{
    // Serialized line-by-line (not vector-by-vector) so the "TAGS"
    // byte stream is identical to the pre-SoA layout.
    io.section("TAGS");
    io.check(addrs_.size(), "tag-array snapshot geometry");
    for (std::size_t i = 0; i < addrs_.size(); ++i) {
        io.u64(addrs_[i]);
        io.b(valid_[i]);
        io.b(dirty_[i]);
        io.u64(touch_seq_[i]);
        io.u64(install_seq_[i]);
    }
    // The layout of vecU8(bytes_), with the size checked on load.
    io.check(bytes_.size(), "tag-array snapshot data size");
    io.bytes(bytes_.data(), bytes_.size());
    io.u64(seq_);
    io.u32(dirty_count_);
    io.u32(dirty_high_water_);
}

} // namespace cache
} // namespace wlcache
