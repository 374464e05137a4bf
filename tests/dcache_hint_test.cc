/**
 * @file
 * The D-cache hit served inline from the MRU-way hint, held against a
 * plain set-associative model. Every TagArray-backed design replays a
 * seeded load/store stream that keeps returning to one line and
 * conflicts within its set, across outages and snapshots restored
 * into fresh caches: each load must read what a flat memory model
 * holds, each access must hit or miss as the model says, and the
 * final statistics and array energies must be what the model counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/nv_cache.hh"
#include "cache/nvsram_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/vcache_wt.hh"
#include "cache/wt_buffered_cache.hh"
#include "core/wl_cache.hh"
#include "mem/nvm_memory.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

enum class Design
{
    WlDqFifo,
    WlDqLru,
    Nvsram,
    NvWb,
    VcacheWt,
    Replay,
    WtBuffered,
};

struct Case
{
    Design design;
    ReplPolicy repl;
};

const char *
designName(Design d)
{
    switch (d) {
      case Design::WlDqFifo:   return "WlDqFifo";
      case Design::WlDqLru:    return "WlDqLru";
      case Design::Nvsram:     return "Nvsram";
      case Design::NvWb:       return "NvWb";
      case Design::VcacheWt:   return "VcacheWt";
      case Design::Replay:     return "Replay";
      case Design::WtBuffered: return "WtBuffered";
    }
    return "?";
}

bool
isWl(Design d)
{
    return d == Design::WlDqFifo || d == Design::WlDqLru;
}

/** Write-through designs update only lines a store hits. */
bool
allocatesOnStore(Design d)
{
    return d != Design::VcacheWt && d != Design::WtBuffered;
}

const WtBufferParams kWtBuffer{};

std::unique_ptr<DataCache>
makeDesign(Design d, const CacheParams &params, mem::NvmMemory &nvm,
           energy::EnergyMeter *meter)
{
    switch (d) {
      case Design::WlDqFifo:
      case Design::WlDqLru: {
        // The DirtyQueue's own charges are zeroed so CacheWrite holds
        // only the array's.
        core::WlParams wl;
        wl.dq_repl = d == Design::WlDqLru ? ReplPolicy::LRU
                                          : ReplPolicy::FIFO;
        wl.dq_access_energy = 0.0;
        wl.dq_lru_search_energy = 0.0;
        return std::make_unique<core::WLCache>(params, wl, nvm, meter);
      }
      case Design::Nvsram:
        return std::make_unique<NvsramCacheWB>(params, NvsramParams{},
                                               nvm, meter);
      case Design::NvWb:
        return std::make_unique<NVCacheWB>(params, nvm, meter);
      case Design::VcacheWt:
        return std::make_unique<VCacheWT>(params, nvm, meter);
      case Design::Replay:
        return std::make_unique<ReplayCacheModel>(params, ReplayParams{},
                                                  nvm, meter);
      case Design::WtBuffered:
        return std::make_unique<WtBufferedCache>(params, kWtBuffer, nvm,
                                                 meter);
    }
    return nullptr;
}

/**
 * Tags only, no hint: a set is a row of ways, a lookup scans it, a
 * miss fills the first invalid way or else the way with the oldest
 * touch (LRU) or install (FIFO) stamp.
 */
struct ReferenceTags
{
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        std::uint64_t touched = 0;
        std::uint64_t installed = 0;
    };

    explicit ReferenceTags(const CacheParams &p)
        : params(p), sets(p.numSets(), std::vector<Way>(p.assoc))
    {
    }

    std::vector<Way> &setOf(Addr line)
    {
        return sets[(line / params.line_bytes) % sets.size()];
    }

    /** One access; fills on a miss when @p allocate. @return hit. */
    bool access(Addr addr, bool allocate)
    {
        const Addr line = addr - addr % params.line_bytes;
        std::vector<Way> &set = setOf(line);
        for (Way &w : set) {
            if (w.valid && w.line == line) {
                w.touched = ++seq;
                return true;
            }
        }
        if (allocate) {
            ++fills;
            install(line);
        }
        return false;
    }

    void install(Addr line)
    {
        std::vector<Way> &set = setOf(line);
        Way *victim = nullptr;
        for (Way &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
        }
        if (!victim) {
            ++evictions;
            victim = &set[0];
            for (Way &w : set) {
                const bool lru = params.repl == ReplPolicy::LRU;
                if ((lru ? w.touched : w.installed) <
                    (lru ? victim->touched : victim->installed))
                    victim = &w;
            }
        }
        *victim = { line, true, ++seq, seq };
    }

    void invalidateAll()
    {
        for (auto &set : sets)
            for (Way &w : set)
                w.valid = false;
    }

    /** NVSRAM's outage: every valid line comes back, set by set. */
    void restoreAll()
    {
        std::vector<Addr> lines;
        for (auto &set : sets)
            for (Way &w : set)
                if (w.valid)
                    lines.push_back(w.line);
        invalidateAll();
        for (const Addr line : lines)
            install(line);
    }

    CacheParams params;
    std::vector<std::vector<Way>> sets;
    std::uint64_t seq = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
};

std::uint64_t
u64(const stats::Scalar &s)
{
    return static_cast<std::uint64_t>(s.value());
}

} // namespace

class DcacheHint : public ::testing::TestWithParam<Case>
{
};

TEST_P(DcacheHint, HintedHitMatchesSetAssociativeReference)
{
    const Design design = GetParam().design;
    CacheParams params;
    params.size_bytes = 512;  // 4 sets of 4 ways
    params.assoc = 4;
    params.line_bytes = 32;
    params.repl = GetParam().repl;
    const unsigned sets = params.numSets();

    energy::EnergyMeter nvm_meter;
    mem::NvmParams np;
    np.size_bytes = 1u << 16;
    mem::NvmMemory nvm(np, &nvm_meter);
    energy::EnergyMeter meter;  // the cache's charges alone
    auto cache = makeDesign(design, params, nvm, &meter);
    ReferenceTags ref(params);

    const Addr base = 0x4000;
    const unsigned lines = 64;  // 4x the cache
    std::vector<std::uint8_t> flat(lines * params.line_bytes, 0);

    Rng rng(0xd1c7 + 31 * static_cast<std::uint64_t>(design) +
            static_cast<std::uint64_t>(params.repl));
    std::uint64_t loads = 0, stores = 0, load_hits = 0, store_hits = 0;
    std::uint64_t hinted = 0;  // hits on the line accessed just before
    unsigned line = 0;
    unsigned prev_line = lines;
    Cycle t = 0;
    for (unsigned step = 0; step < 30'000; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const double r = rng.nextDouble();
        if (r < 0.01) {
            // Outage: checkpoint, power loss, restore.
            t = cache->checkpoint(t);
            cache->powerLoss();
            nvm.resetChannel();
            t = cache->powerRestore(t + 2000);
            if (design == Design::Nvsram)
                ref.restoreAll();
            else if (design != Design::NvWb)
                ref.invalidateAll();
            continue;
        }
        if (r < 0.015) {
            // Snapshot restored into a fresh cache (no hint state).
            SnapshotWriter w;
            StateIo::save(*cache, w);
            const std::vector<std::uint8_t> bytes = w.take();
            auto fresh = makeDesign(design, params, nvm, &meter);
            SnapshotReader rd(bytes);
            StateIo::load(*fresh, rd);
            cache = std::move(fresh);
            continue;
        }
        // Mostly the last line again, else a line of the same set
        // (a conflict), else anywhere.
        const double where = rng.nextDouble();
        if (where < 0.25)
            line = static_cast<unsigned>(
                (line + sets * rng.nextRange(1, lines / sets - 1)) %
                lines);
        else if (where < 0.4)
            line = static_cast<unsigned>(rng.nextBelow(lines));
        const unsigned bytes = 1u << rng.nextBelow(4);
        const unsigned off = bytes * static_cast<unsigned>(
            rng.nextBelow(params.line_bytes / bytes));
        const Addr addr = base + line * params.line_bytes + off;
        std::uint8_t *mem = &flat[addr - base];

        const bool is_store = rng.nextBool(0.4);
        const bool expect_hit =
            ref.access(addr, !is_store || allocatesOnStore(design));
        if (expect_hit && line == prev_line)
            ++hinted;
        prev_line = line;
        CacheAccessResult res{};
        if (is_store) {
            const std::uint64_t v = rng.next();
            res = cache->access(MemOp::Store, addr, bytes, v, nullptr, t);
            for (unsigned i = 0; i < bytes; ++i)
                mem[i] = static_cast<std::uint8_t>(v >> (8 * i));
            ++stores;
            store_hits += expect_hit;
        } else {
            std::uint64_t out = ~0ull;
            res = cache->access(MemOp::Load, addr, bytes, 0, &out, t);
            std::uint64_t expect = 0;
            for (unsigned i = 0; i < bytes; ++i)
                expect |= static_cast<std::uint64_t>(mem[i]) << (8 * i);
            ASSERT_EQ(out, expect) << bytes << "-byte load at 0x"
                                   << std::hex << addr;
            ++loads;
            load_hits += expect_hit;
        }
        ASSERT_EQ(res.hit, expect_hit)
            << (is_store ? "store" : "load") << " at 0x" << std::hex
            << addr;
        t = res.ready;
    }
    EXPECT_GT(hinted, 10'000u);

    const CacheStats &s = cache->stats();
    EXPECT_EQ(u64(s.loads), loads);
    EXPECT_EQ(u64(s.stores), stores);
    EXPECT_EQ(u64(s.load_hits), load_hits);
    EXPECT_EQ(u64(s.store_hits), store_hits);
    EXPECT_EQ(u64(s.fills), ref.fills);
    EXPECT_EQ(u64(s.evictions), ref.evictions);

    // Array energy from the model's counts: a read per load, a write
    // and a replacement update per store that reaches the array, a
    // replacement update per load, a fill per miss that allocates,
    // and a line read per line the design persisted from the array
    // (write-backs; WL's checkpoint too). WT+Buffer adds a CAM search
    // per access.
    const bool alloc = allocatesOnStore(design);
    const std::uint64_t written = alloc ? stores : store_hits;
    std::uint64_t line_reads = u64(s.writebacks);
    if (isWl(design))
        line_reads += u64(s.checkpoint_lines);
    using energy::toAttojoules;
    energy::Attojoules read_aj =
        loads * toAttojoules(params.access_energy_read) +
        line_reads * toAttojoules(params.line_read_energy);
    if (design == Design::WtBuffered)
        read_aj += (loads + stores) * toAttojoules(
            kWtBuffer.cam_search_energy);
    const energy::Attojoules repl_aj = params.repl == ReplPolicy::LRU
        ? toAttojoules(params.lru_update_energy) : 0;
    const energy::Attojoules write_aj =
        written * toAttojoules(params.access_energy_write) +
        (loads + written) * repl_aj +
        ref.fills * toAttojoules(params.line_fill_energy);
    EXPECT_EQ(meter.getAj(energy::EnergyCategory::CacheRead), read_aj);
    EXPECT_EQ(meter.getAj(energy::EnergyCategory::CacheWrite), write_aj);
    EXPECT_EQ(meter.getAj(energy::EnergyCategory::Compute), 0u);
    EXPECT_EQ(meter.getAj(energy::EnergyCategory::MemRead), 0u);
    EXPECT_EQ(meter.getAj(energy::EnergyCategory::MemWrite), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TagDesigns, DcacheHint,
    ::testing::Values(Case{ Design::WlDqFifo, ReplPolicy::LRU },
                      Case{ Design::WlDqFifo, ReplPolicy::FIFO },
                      Case{ Design::WlDqLru, ReplPolicy::LRU },
                      Case{ Design::WlDqLru, ReplPolicy::FIFO },
                      Case{ Design::Nvsram, ReplPolicy::LRU },
                      Case{ Design::Nvsram, ReplPolicy::FIFO },
                      Case{ Design::NvWb, ReplPolicy::LRU },
                      Case{ Design::NvWb, ReplPolicy::FIFO },
                      Case{ Design::VcacheWt, ReplPolicy::LRU },
                      Case{ Design::VcacheWt, ReplPolicy::FIFO },
                      Case{ Design::Replay, ReplPolicy::LRU },
                      Case{ Design::Replay, ReplPolicy::FIFO },
                      Case{ Design::WtBuffered, ReplPolicy::LRU },
                      Case{ Design::WtBuffered, ReplPolicy::FIFO }),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(designName(info.param.design)) +
            (info.param.repl == ReplPolicy::LRU ? "Lru" : "Fifo");
    });
