/**
 * @file
 * Geometry, timing, and energy parameters for the cache models, with
 * presets for the SRAM and non-volatile (ReRAM-class) technologies
 * from the paper's Table 2: 8 KB, 2-way, 64 B lines; SRAM hit/miss
 * 0.3/0.1 ns; NV cache hit/miss 1.6/1.5 ns.
 */

#ifndef WLCACHE_CACHE_CACHE_PARAMS_HH
#define WLCACHE_CACHE_CACHE_PARAMS_HH

#include <cstddef>
#include <string>

#include "sim/types.hh"

namespace wlcache {
namespace cache {

/** Cache (and DirtyQueue) replacement policy. */
enum class ReplPolicy
{
    LRU,
    FIFO,
};

/** Human-readable policy name. */
const char *replPolicyName(ReplPolicy p);

/**
 * Inverse of replPolicyName(), case-insensitive ("lru" and "fifo" as
 * the tools and sweep specs spell them).
 * @return true and set @p out on a match; false on an unknown name.
 */
bool replPolicyFromName(const std::string &name, ReplPolicy &out);

/** Parameters shared by every cache design. */
struct CacheParams
{
    // --- Geometry (paper defaults) ---
    std::size_t size_bytes = 8192;
    unsigned assoc = 2;
    unsigned line_bytes = 64;
    ReplPolicy repl = ReplPolicy::LRU;

    // --- Timing (cycles at 1 GHz; sub-ns values round up to 1) ---
    Cycle hit_latency = 1;        //!< SRAM read hit, 0.3 ns.
    Cycle write_hit_latency = 1;  //!< SRAM write hit (same array).
    Cycle miss_lookup_latency = 1; //!< Tag probe on a miss, 0.1 ns.

    // --- Energy (joules) ---
    double access_energy_read = 10.0e-12;   //!< Per word-sized access.
    double access_energy_write = 12.0e-12;
    double line_fill_energy = 60.0e-12;     //!< Write a full line image.
    double line_read_energy = 50.0e-12;     //!< Read a full line image.
    double leakage_watts = 0.05e-3;

    /**
     * Extra per-access bookkeeping energy charged when @c repl is LRU
     * (tracking the LRU/MRU chain on every access). The paper's §6.5
     * identifies exactly this cost as the reason FIFO outperforms LRU
     * under frequent outages.
     */
    double lru_update_energy = 3.0e-12;

    unsigned numLines() const
    {
        return static_cast<unsigned>(size_bytes / line_bytes);
    }
    unsigned numSets() const { return numLines() / assoc; }

    /** Validate geometry (power-of-two sets/lines); fatal() on error. */
    void validate() const;
};

/** SRAM technology preset (VCache-WT, NVSRAM runtime array, WL-Cache). */
CacheParams sramCacheParams();

/** Non-volatile (ReRAM-class) preset for NVCache-WB. */
CacheParams nvCacheParams();

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_CACHE_PARAMS_HH
