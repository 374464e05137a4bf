/**
 * @file
 * Cross-design differential fuzzing: every cache design replays the
 * same long random load/store/outage sequence against a reference
 * memory map. Loads must always return the last value stored
 * (functional correctness of hit/miss/fill/evict/migrate paths), and
 * after every checkpoint+power-loss the persistent view (NVM plus
 * the design's overlay) must equal the reference.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cache/no_cache.hh"
#include "cache/nv_cache.hh"
#include "cache/nvsram_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "cache/vcache_wt.hh"
#include "cache/wt_buffered_cache.hh"
#include "core/wl_cache.hh"
#include "mem/byte_image.hh"
#include "mem/nvm_memory.hh"
#include "sim/rng.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

enum class FuzzDesign
{
    NoCacheD,
    Wt,
    WtBuffered,
    NvCache,
    NvsramIdeal,
    NvsramFull,
    NvsramPractical,
    Wl,
};

const char *
fuzzDesignName(FuzzDesign d)
{
    switch (d) {
      case FuzzDesign::NoCacheD:        return "NoCache";
      case FuzzDesign::Wt:              return "VCacheWT";
      case FuzzDesign::WtBuffered:      return "WtBuffered";
      case FuzzDesign::NvCache:         return "NVCacheWB";
      case FuzzDesign::NvsramIdeal:     return "NvsramIdeal";
      case FuzzDesign::NvsramFull:      return "NvsramFull";
      case FuzzDesign::NvsramPractical: return "NvsramPractical";
      case FuzzDesign::Wl:              return "WLCache";
    }
    return "?";
}

std::unique_ptr<DataCache>
makeDesign(FuzzDesign d, const CacheParams &params, mem::NvmMemory &nvm,
           energy::EnergyMeter *meter)
{
    switch (d) {
      case FuzzDesign::NoCacheD:
        return std::make_unique<NoCache>(nvm, meter);
      case FuzzDesign::Wt:
        return std::make_unique<VCacheWT>(params, nvm, meter);
      case FuzzDesign::WtBuffered:
        return std::make_unique<WtBufferedCache>(
            params, WtBufferParams{}, nvm, meter);
      case FuzzDesign::NvCache:
        return std::make_unique<NVCacheWB>(nvCacheParams(), nvm,
                                           meter);
      case FuzzDesign::NvsramIdeal:
        return std::make_unique<NvsramCacheWB>(params, NvsramParams{},
                                               nvm, meter);
      case FuzzDesign::NvsramFull: {
        NvsramParams p;
        p.backup_full = true;
        return std::make_unique<NvsramCacheWB>(params, p, nvm, meter);
      }
      case FuzzDesign::NvsramPractical:
        return std::make_unique<NvsramPracticalCache>(
            params, nvCacheParams(), NvsramPracticalParams{}, nvm,
            meter);
      case FuzzDesign::Wl:
        return std::make_unique<core::WLCache>(params, core::WlParams{},
                                               nvm, meter);
    }
    return nullptr;
}

} // namespace

class DesignFuzz : public ::testing::TestWithParam<FuzzDesign>
{
};

TEST_P(DesignFuzz, RandomSequencePreservesDataAndPersistence)
{
    energy::EnergyMeter meter;
    mem::NvmParams np;
    np.size_bytes = 1u << 16;
    mem::NvmMemory nvm(np, &meter);
    CacheParams params;
    params.size_bytes = 1024;
    params.assoc = 2;
    params.line_bytes = 64;
    auto cache = makeDesign(GetParam(), params, nvm, &meter);
    ASSERT_NE(cache, nullptr);

    Rng rng(0xf00d ^ static_cast<std::uint64_t>(GetParam()));
    std::map<Addr, std::uint32_t> reference;
    mem::ByteImage expected;  // the same stores, as the oracle sees them
    const Addr base = 0x2000;
    const unsigned footprint_words = 800;  // ~3x the cache

    Cycle t = 0;
    for (unsigned step = 0; step < 20'000; ++step) {
        const Addr addr = base + 4 * rng.nextBelow(footprint_words);
        const double dice = rng.nextDouble();
        if (dice < 0.4) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            t = cache->access(MemOp::Store, addr, 4, v, nullptr, t)
                    .ready;
            reference[addr] = v;
            const std::uint8_t bytes[4] = {
                static_cast<std::uint8_t>(v),
                static_cast<std::uint8_t>(v >> 8),
                static_cast<std::uint8_t>(v >> 16),
                static_cast<std::uint8_t>(v >> 24),
            };
            expected.write(addr, bytes, 4);
        } else if (dice < 0.99) {
            std::uint64_t out = 0;
            t = cache->access(MemOp::Load, addr, 4, 0, &out, t).ready;
            const auto it = reference.find(addr);
            const std::uint32_t expect =
                it == reference.end() ? 0u : it->second;
            ASSERT_EQ(static_cast<std::uint32_t>(out), expect)
                << fuzzDesignName(GetParam()) << " step " << step;
        } else {
            // Outage: checkpoint, verify persistence, power cycle.
            t = cache->checkpoint(t);
            cache->powerLoss();
            mem::ByteImage overlay;
            cache->collectPersistentOverlay(overlay);
            const auto bad = expected.firstMismatch(nvm, overlay, {});
            ASSERT_EQ(bad, std::nullopt)
                << fuzzDesignName(GetParam()) << " 0x" << std::hex
                << bad.value_or(0) << std::dec << " step " << step;
            nvm.resetChannel();
            t = cache->powerRestore(t + 2000);
        }
    }

    // Final drain: NVM alone must hold everything.
    t = cache->drainAndFlush(t + 1'000'000);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt)
        << fuzzDesignName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignFuzz,
    ::testing::Values(FuzzDesign::NoCacheD, FuzzDesign::Wt,
                      FuzzDesign::WtBuffered, FuzzDesign::NvCache,
                      FuzzDesign::NvsramIdeal, FuzzDesign::NvsramFull,
                      FuzzDesign::NvsramPractical, FuzzDesign::Wl),
    [](const ::testing::TestParamInfo<FuzzDesign> &info) {
        return fuzzDesignName(info.param);
    });
