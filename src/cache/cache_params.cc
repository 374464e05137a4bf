#include "cache/cache_params.hh"

#include "sim/logging.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"

namespace wlcache {
namespace cache {

const char *
replPolicyName(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::LRU:  return "LRU";
      case ReplPolicy::FIFO: return "FIFO";
    }
    panic("unknown ReplPolicy %d", static_cast<int>(p));
}

bool
replPolicyFromName(const std::string &name, ReplPolicy &out)
{
    const std::string n = util::toLower(name);
    if (n == "lru")
        out = ReplPolicy::LRU;
    else if (n == "fifo")
        out = ReplPolicy::FIFO;
    else
        return false;
    return true;
}

void
CacheParams::validate() const
{
    if (line_bytes == 0 || !util::isPowerOfTwo(line_bytes))
        fatal("cache line size must be a power of two (got %u)",
              line_bytes);
    if (size_bytes == 0 || size_bytes % line_bytes != 0)
        fatal("cache size must be a multiple of the line size");
    if (assoc == 0 || numLines() % assoc != 0)
        fatal("cache associativity must divide the line count");
    if (!util::isPowerOfTwo(numSets()))
        fatal("number of cache sets must be a power of two (got %u)",
              numSets());
}

CacheParams
sramCacheParams()
{
    return CacheParams{};
}

CacheParams
nvCacheParams()
{
    CacheParams p;
    // Table 2: NVRAM cache hit/miss 1.6 ns / 1.5 ns for reads; the
    // resistive cell write pulse is an order of magnitude slower.
    p.hit_latency = 3;
    p.write_hit_latency = 12;
    p.miss_lookup_latency = 3;
    // ReRAM-class arrays: writes are substantially more expensive
    // than SRAM, reads moderately so; leakage is what the paper's
    // §6.2 compares the DirtyQueue against.
    p.access_energy_read = 80.0e-12;
    p.access_energy_write = 160.0e-12;
    p.line_fill_energy = 800.0e-12;
    p.line_read_energy = 400.0e-12;
    p.leakage_watts = 1.1e-3;
    p.lru_update_energy = 3.0e-12;
    return p;
}

} // namespace cache
} // namespace wlcache
