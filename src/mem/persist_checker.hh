/**
 * @file
 * Crash-consistency oracle. Tracks the architecturally-expected NVM
 * contents (every committed store applied in program order) so tests
 * can verify, at any recovery point or at program completion, that
 * the persistent state a cache design produced is consistent.
 */

#ifndef WLCACHE_MEM_PERSIST_CHECKER_HH
#define WLCACHE_MEM_PERSIST_CHECKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace wlcache {

class StateIo;

namespace mem {

class NvmMemory;

/** A detected divergence between expected and actual NVM state. */
struct PersistMismatch
{
    Addr addr;
    std::uint8_t expected;
    std::uint8_t actual;
};

/**
 * Result of diffing the expected persistent image against the actual
 * state (NVM plus a design's persistent overlay). `mismatches` holds
 * the lowest-addressed divergences so the first entry is a stable,
 * deterministic "first divergence" regardless of hash-map order.
 */
struct StateDiff
{
    std::vector<PersistMismatch> mismatches; //!< Sorted by address.
    std::uint64_t total_mismatched_bytes = 0;

    bool consistent() const { return total_mismatched_bytes == 0; }
};

/**
 * Shadow image of expected persistent memory. Byte granular; only
 * bytes ever stored (or explicitly initialized) are tracked, so a
 * comparison touches exactly the workload's write footprint.
 */
class PersistChecker
{
  public:
    /** Record that the program stored @p value (little-endian). */
    void applyStore(Addr addr, unsigned bytes, std::uint64_t value);

    /** Record initial data (workload input images). */
    void applyInit(Addr addr, const std::uint8_t *data, unsigned bytes);

    /**
     * Compare every tracked byte against @p nvm.
     * @param max_mismatches Stop after this many differences.
     * @return list of mismatching bytes (empty means consistent).
     */
    std::vector<PersistMismatch>
    compare(const NvmMemory &nvm, std::size_t max_mismatches = 16) const;

    /**
     * Diff every tracked byte against the actual persistent state: a
     * design's persistent @p overlay where present, @p nvm otherwise.
     * @param skip When non-null, bytes for which it returns true are
     *        excluded (e.g.\ ReplayCache's in-flight region, which is
     *        rewritten on re-execution).
     * @param max_mismatches Lowest-addressed divergences to retain in
     *        the diff (the total count is always exact).
     */
    StateDiff diffState(
        const NvmMemory &nvm,
        const std::unordered_map<Addr, std::uint8_t> &overlay,
        const std::function<bool(Addr)> &skip = nullptr,
        std::size_t max_mismatches = 16) const;

    /** Visit every tracked byte with its expected value. */
    void forEach(
        const std::function<void(Addr, std::uint8_t)> &fn) const
    {
        for (const auto &[addr, expected] : shadow_)
            fn(addr, expected);
    }

    /** Number of distinct tracked bytes. */
    std::size_t footprintBytes() const { return shadow_.size(); }

    /** Expected value of a tracked byte; asserts if untracked. */
    std::uint8_t expectedByte(Addr addr) const;

    /** True if @p addr has ever been stored/initialized. */
    bool isTracked(Addr addr) const;

    /** Forget everything (new program run). */
    void reset();

    /** Render a short human-readable mismatch report. */
    static std::string describe(const std::vector<PersistMismatch> &ms);

    /** Serialize the shadow image (sorted for determinism). */
    void ioState(StateIo &io);

  private:
    std::unordered_map<Addr, std::uint8_t> shadow_;
};

} // namespace mem
} // namespace wlcache

#endif // WLCACHE_MEM_PERSIST_CHECKER_HH
