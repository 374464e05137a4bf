#include "cache/nv_cache.hh"

#include "mem/byte_image.hh"

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
NVCacheWB::collectPersistentOverlay(mem::ByteImage &overlay) const
{
    tags_.forEachValidLine([&](cache::LineRef ref, Addr laddr,
                               bool dirty) {
        if (dirty)
            overlay.write(laddr, tags_.data(ref), tags_.lineBytes());
    });
}

} // namespace cache
} // namespace wlcache
