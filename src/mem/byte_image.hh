/**
 * @file
 * Sparse byte image of persistent memory, the crash-consistency
 * oracle's one data type: the expected NVM contents (initial program
 * image plus every store, in program order), a design's persistent
 * overlay, and ReplayCache's in-flight skip set. Only written bytes
 * are tracked, in 4 KiB pages, so a diff reads NVM a page at a time.
 */

#ifndef WLCACHE_MEM_BYTE_IMAGE_HH
#define WLCACHE_MEM_BYTE_IMAGE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "mem/nvm_memory.hh"
#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

class ByteImage
{
  public:
    static constexpr std::size_t kPageBytes = NvmMemory::kJournalPageBytes;

    /** Set the @p n bytes at @p addr; the range may straddle pages. */
    void write(Addr addr, const void *data, std::size_t n);

    /** Copy the tracked bytes of [@p base, @p base + @p size) to @p out. */
    void applyTo(Addr base, std::uint8_t *out, std::size_t size) const;

    /**
     * Lowest tracked address, outside @p skip, whose byte differs from
     * @p overlay's byte where it tracks one and @p nvm's otherwise.
     */
    std::optional<Addr> firstMismatch(const NvmMemory &nvm,
                                      const ByteImage &overlay,
                                      const ByteImage &skip) const;

    /** u64 page count, then per page, ascending: u64 page number, the
     *  valid bitmap as u64 words, the page's bytes (0 where untracked). */
    void ioState(StateIo &io);

  private:
    static constexpr std::size_t kWords = kPageBytes / 64;

    struct Page
    {
        std::array<std::uint8_t, kPageBytes> data{};
        std::array<std::uint64_t, kWords> valid{};  //!< Bit per byte.
    };

    /** Page number @p pn, or null if untracked. */
    const Page *find(Addr pn) const;

    std::map<Addr, Page> pages_;  //!< Keyed by page number.
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_BYTE_IMAGE_HH
