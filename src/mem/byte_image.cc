#include "mem/byte_image.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

void
ByteImage::write(Addr addr, const void *data, std::size_t n)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    while (n > 0) {
        const std::size_t off = addr % kPageBytes;
        const std::size_t chunk = std::min(n, kPageBytes - off);
        Page &page = pages_[addr / kPageBytes];
        std::memcpy(page.data.data() + off, src, chunk);
        for (std::size_t i = off; i < off + chunk; ++i)
            page.valid[i / 64] |= std::uint64_t{1} << (i % 64);
        addr += chunk;
        src += chunk;
        n -= chunk;
    }
}

void
ByteImage::applyTo(Addr base, std::uint8_t *out, std::size_t size) const
{
    for (auto it = pages_.lower_bound(base / kPageBytes);
         it != pages_.end() && it->first * kPageBytes < base + size; ++it) {
        const Addr page_base = it->first * kPageBytes;
        const Page &page = it->second;
        for (std::size_t w = 0; w < kWords; ++w)
            for (std::uint64_t bits = page.valid[w]; bits; bits &= bits - 1) {
                const std::size_t i = w * 64 + std::countr_zero(bits);
                if (page_base + i >= base && page_base + i < base + size)
                    out[page_base + i - base] = page.data[i];
            }
    }
}

const ByteImage::Page *
ByteImage::find(Addr pn) const
{
    const auto it = pages_.find(pn);
    return it == pages_.end() ? nullptr : &it->second;
}

std::optional<Addr>
ByteImage::firstMismatch(const NvmMemory &nvm, const ByteImage &overlay,
                         const ByteImage &skip) const
{
    std::array<std::uint8_t, kPageBytes> actual{};
    for (const auto &[pn, page] : pages_) {
        // The NVM need not end on a page boundary; past its end reads 0.
        const Addr page_base = pn * kPageBytes;
        const std::size_t n = page_base < nvm.sizeBytes()
            ? std::min(kPageBytes, nvm.sizeBytes() - page_base) : 0;
        if (n > 0)
            nvm.peek(page_base, static_cast<unsigned>(n), actual.data());
        std::fill(actual.begin() + n, actual.end(), 0);
        const Page *over = overlay.find(pn);
        const Page *skipped = skip.find(pn);
        for (std::size_t w = 0; w < kWords; ++w) {
            std::uint64_t bits = page.valid[w];
            if (skipped)
                bits &= ~skipped->valid[w];
            for (; bits; bits &= bits - 1) {
                const std::size_t i = w * 64 + std::countr_zero(bits);
                const bool overlaid = over && (over->valid[w] >> (i % 64) & 1);
                if ((overlaid ? over->data[i] : actual[i]) != page.data[i])
                    return page_base + i;
            }
        }
    }
    return std::nullopt;
}

void
ByteImage::ioState(StateIo &io)
{
    std::vector<Addr> pns;
    for (const auto &entry : pages_)
        pns.push_back(entry.first);
    if (io.loading())
        pages_.clear();
    io.seq(pns, [&](Addr &pn) {
        io.u64(pn);
        Page &page = pages_[pn];
        for (std::uint64_t &word : page.valid)
            io.u64(word);
        io.bytes(page.data.data(), kPageBytes);
    });
}

} // namespace mem
} // namespace wlcache
