#include "cache/vcache_wt.hh"

namespace wlcache {
namespace cache {

VCacheWT::VCacheWT(const CacheParams &params, mem::NvmMemory &nvm,
                   energy::EnergyMeter *meter)
    : BaseTagCache("vcache_wt", params, nvm, meter)
{
}

CacheAccessResult
VCacheWT::access(MemOp op, Addr addr, unsigned bytes, std::uint64_t value,
                 std::uint64_t *load_out, Cycle now)
{
    if (op == MemOp::Load)
        return load(addr, bytes, load_out, now);
    // Store: synchronous NVM update; cache updated only on a hit
    // (no-write-allocate keeps the design simple, as a classic WT).
    // WT lines are never dirty: NVM gets the same data.
    const bool hit = storeNoAllocate(addr, bytes, value);
    return { nvm_.write(addr, bytes, &value, now).ready, hit };
}

} // namespace cache
} // namespace wlcache
