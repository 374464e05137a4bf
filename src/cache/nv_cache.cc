#include "cache/nv_cache.hh"

namespace wlcache {
namespace cache {

NVCacheWB::NVCacheWB(const CacheParams &params, mem::NvmMemory &nvm,
                     energy::EnergyMeter *meter)
    : BaseTagCache("nvcache_wb", params, nvm, meter)
{
}

CacheAccessResult
NVCacheWB::access(MemOp op, Addr addr, unsigned bytes, std::uint64_t value,
                  std::uint64_t *load_out, Cycle now)
{
    if (op == MemOp::Load)
        return load(addr, bytes, load_out, now);
    return storeWriteBack(addr, bytes, value, now);
}

void
NVCacheWB::collectPersistentOverlay(
    std::unordered_map<Addr, std::uint8_t> &overlay) const
{
    tags_.forEachValidLine([&](cache::LineRef ref, Addr laddr,
                               bool dirty) {
        if (!dirty)
            return;
        const std::uint8_t *bytes = tags_.data(ref);
        for (unsigned i = 0; i < tags_.lineBytes(); ++i)
            overlay[laddr + i] = bytes[i];
    });
}

} // namespace cache
} // namespace wlcache
