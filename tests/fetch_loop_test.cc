/**
 * @file
 * Differential tests for fetch fast-forward. A multi-iteration
 * InstrCache::fetchRun must leave exactly the state that the same
 * number of single-iteration calls leaves (cycles, every energy
 * category, counters, NVM reads, snapshot bytes), over random
 * geometries that include direct-mapped and one- or two-set arrays
 * where a loop body evicts itself, with and without frequent outages.
 * At core level, InOrderCore::executeEvent (whole iterations per
 * step) must match a reference that fetches through
 * ICacheStream::take(left) and one single-iteration fetchRun per run.
 * The same-line hit fetchRun() takes without a pass must match a
 * plain TagArray model of the fetch path, across outages and
 * snapshot restores that leave its remembered line stale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/icache.hh"
#include "cache/vcache_wt.hh"
#include "cpu/icache_stream.hh"
#include "cpu/inorder_core.hh"
#include "mem/nvm_memory.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::cache;
using namespace wlcache::cpu;

namespace {

constexpr ICacheKind kKinds[] = { ICacheKind::None, ICacheKind::Volatile,
                                  ICacheKind::NonVolatile,
                                  ICacheKind::WarmRestore };

mem::NvmParams
nvmParams()
{
    mem::NvmParams np;
    np.size_bytes = 8u << 20;
    return np;
}

/** A random geometry; small arrays make loop bodies collide. */
CacheParams
randomGeometry(Rng &rng)
{
    CacheParams p;
    const unsigned lines[] = { 16, 32, 64 };
    const unsigned assocs[] = { 1, 2, 4 };
    const unsigned sets[] = { 1, 2, 4, 16, 64 };
    p.line_bytes = lines[rng.nextBelow(3)];
    p.assoc = assocs[rng.nextBelow(3)];
    p.size_bytes = static_cast<std::size_t>(p.line_bytes) * p.assoc *
        sets[rng.nextBelow(5)];
    p.repl = rng.nextBool() ? ReplPolicy::LRU : ReplPolicy::FIFO;
    p.hit_latency = rng.nextBool() ? 1 : 2;
    // Uneven per-word energy so per-chunk quantization is exercised.
    p.access_energy_read = rng.nextDouble(1.0e-12, 20.0e-12);
    p.lru_update_energy = rng.nextDouble(0.5e-12, 5.0e-12);
    return p;
}

std::vector<std::uint8_t>
bytesOf(const InstrCache &ic)
{
    SnapshotWriter w;
    StateIo::save(ic, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const ICacheStream &s)
{
    SnapshotWriter w;
    StateIo::save(s, w);
    return w.take();
}

std::vector<std::uint8_t>
bytesOf(const DataCache &dc)
{
    SnapshotWriter w;
    StateIo::save(dc, w);
    return w.take();
}

double
statValue(stats::StatGroup &g, const std::string &name)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(g.find(name));
    return s ? s->value() : -1.0;
}

void
expectSameMeters(const energy::EnergyMeter &a,
                 const energy::EnergyMeter &b)
{
    for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories;
         ++c) {
        const auto cat = static_cast<energy::EnergyCategory>(c);
        EXPECT_EQ(a.getAj(cat), b.getAj(cat)) << "category " << c;
    }
}

void
expectSameICaches(InstrCache &a, InstrCache &b)
{
    EXPECT_EQ(a.fetches(), b.fetches());
    EXPECT_EQ(a.lineMisses(), b.lineMisses());
    EXPECT_EQ(statValue(a.statGroup(), "line_hits"),
              statValue(b.statGroup(), "line_hits"));
    EXPECT_EQ(bytesOf(a), bytesOf(b));
}

/** One cache under test and its twin, each with its own NVM/meter. */
struct Twin
{
    explicit Twin(const CacheParams &p, ICacheKind kind)
        : nvm(nvmParams(), &meter), ic(p, kind, nvm, &meter)
    {
    }

    energy::EnergyMeter meter;
    mem::NvmMemory nvm;
    InstrCache ic;
};

/**
 * @p trials random geometries, cycling through @p kinds, each running
 * @p ops random k-iteration fetchRuns against k single-iteration ones,
 * with an outage before a run with probability @p outage_p.
 */
void
expectMultiIterationMatchesRepeated(std::uint64_t seed, int trials, int ops,
                                    const std::vector<ICacheKind> &kinds,
                                    double outage_p)
{
    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
        const CacheParams p = randomGeometry(rng);
        const ICacheKind kind = kinds[trial % kinds.size()];
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " kind "
                     << static_cast<int>(kind) << " line " << p.line_bytes
                     << " assoc " << p.assoc << " sets " << p.numSets()
                     << (p.repl == ReplPolicy::LRU ? " LRU" : " FIFO")
                     << " hit " << p.hit_latency);
        Twin fast(p, kind);
        Twin ref(p, kind);
        Cycle t_fast = 0;
        Cycle t_ref = 0;
        const Addr base = 0x400000 + 4 * rng.nextBelow(64);
        for (int op = 0; op < ops; ++op) {
            if (rng.nextBool(outage_p)) {
                fast.ic.powerLoss();
                ref.ic.powerLoss();
                t_fast = fast.ic.powerRestore(t_fast + 100);
                t_ref = ref.ic.powerRestore(t_ref + 100);
                ASSERT_EQ(t_fast, t_ref);
            }
            // Bodies up to 96 instructions over a 1.5 KB footprint, so
            // a body can span more lines than a small array's sets
            // and ways hold.
            const Addr pc = base + 4 * rng.nextBelow(384);
            const unsigned count =
                static_cast<unsigned>(rng.nextRange(1, 96));
            const unsigned iters =
                static_cast<unsigned>(rng.nextRange(1, 40));
            t_fast = fast.ic.fetchRun(pc, count, t_fast, iters);
            for (unsigned i = 0; i < iters; ++i)
                t_ref = ref.ic.fetchRun(pc, count, t_ref);
            ASSERT_EQ(t_fast, t_ref) << "op " << op;
            ASSERT_EQ(fast.nvm.numReads(), ref.nvm.numReads())
                << "op " << op;
        }
        expectSameMeters(fast.meter, ref.meter);
        expectSameICaches(fast.ic, ref.ic);
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace

TEST(FetchLoop, MultiIterationRunMatchesRepeatedRuns)
{
    expectMultiIterationMatchesRepeated(
        0xfe7c41007ull, 400, 60,
        { std::begin(kKinds), std::end(kKinds) }, 0.05);
}

TEST(FetchLoop, MultiIterationRunMatchesRepeatedRunsAcrossOutages)
{
    // An outage every few runs, so most bodies start cold (Volatile)
    // or warm-restored, and a first pass that misses is the common
    // case.
    expectMultiIterationMatchesRepeated(
        0x0a7a6e5ull, 300, 40,
        { ICacheKind::Volatile, ICacheKind::WarmRestore,
          ICacheKind::NonVolatile },
        0.4);
}

TEST(FetchLoop, FirstPassThatMissesAndSelfEvictsMatchesRepeatedRuns)
{
    // One set of two ways and a five-line body: the first pass misses
    // on every line and its later chunks evict its earlier ones, so
    // no pass ever finds the body resident.
    for (const ReplPolicy repl : { ReplPolicy::LRU, ReplPolicy::FIFO }) {
        CacheParams p;
        p.size_bytes = 128;
        p.assoc = 2;
        p.repl = repl;
        Twin fast(p, ICacheKind::Volatile);
        Twin ref(p, ICacheKind::Volatile);
        const Cycle t_fast = fast.ic.fetchRun(0x400010, 76, 0, 7);
        Cycle t_ref = 0;
        for (int i = 0; i < 7; ++i)
            t_ref = ref.ic.fetchRun(0x400010, 76, t_ref);
        EXPECT_EQ(t_fast, t_ref);
        EXPECT_EQ(fast.ic.lineMisses(), 5u * 7u);
        EXPECT_EQ(statValue(fast.ic.statGroup(), "line_hits"), 0.0);
        EXPECT_EQ(fast.nvm.numReads(), ref.nvm.numReads());
        expectSameMeters(fast.meter, ref.meter);
        expectSameICaches(fast.ic, ref.ic);
    }
}

TEST(FetchLoop, ResidentBodyChargesPureHits)
{
    energy::EnergyMeter meter;
    mem::NvmMemory nvm(nvmParams(), &meter);
    const CacheParams p;
    InstrCache ic(p, ICacheKind::Volatile, nvm, &meter);
    // 40 instructions from mid-line: three 64-byte lines.
    const Cycle warm = ic.fetchRun(0x400020, 40, 0);
    EXPECT_EQ(ic.lineMisses(), 3u);
    const Cycle end = ic.fetchRun(0x400020, 40, warm, 1000);
    EXPECT_EQ(end - warm, 40u * 1000u * p.hit_latency);
    EXPECT_EQ(ic.lineMisses(), 3u);
    EXPECT_EQ(ic.fetches(), 40u * 1001u);
    EXPECT_EQ(statValue(ic.statGroup(), "line_hits"), 3.0 * 1000);
}

TEST(FetchLoop, SelfEvictingBodyFallsBack)
{
    // Direct-mapped, one set: every line of a two-line body evicts
    // the other, so every iteration misses twice.
    energy::EnergyMeter meter;
    mem::NvmMemory nvm(nvmParams(), &meter);
    CacheParams p;
    p.size_bytes = 64;
    p.assoc = 1;
    InstrCache ic(p, ICacheKind::Volatile, nvm, &meter);
    ic.fetchRun(0x400000, 32, 0, 5);
    EXPECT_EQ(ic.lineMisses(), 10u);
    EXPECT_EQ(statValue(ic.statGroup(), "line_hits"), 0.0);
}

namespace {

/**
 * The I-cache fetch path spelled out on a TagArray of its own, with
 * no hint and no batching: every chunk of every iteration probes its
 * line, then touches it, or invalidates the victim, reads the line
 * from NVM and installs it. Its ioState() writes InstrCache's layout.
 */
struct ReferenceICache
{
    ReferenceICache(const CacheParams &p, ICacheKind kind)
        : params(p), kind(kind), nvm(nvmParams(), &meter),
          group("icache"), fetches(group.addScalar("fetches", "")),
          hits(group.addScalar("line_hits", "")),
          misses(group.addScalar("line_misses", ""))
    {
        if (kind != ICacheKind::None)
            tags = std::make_unique<TagArray>(p, false);
        lru_aj = p.repl == ReplPolicy::LRU
            ? energy::toAttojoules(p.lru_update_energy)
            : 0;
    }

    Cycle fetchRun(Addr pc, unsigned count, Cycle now, unsigned iters)
    {
        for (unsigned i = 0; i < iters; ++i)
            now = fetchOnce(pc, count, now);
        return now;
    }

    Cycle fetchOnce(Addr pc, unsigned count, Cycle now)
    {
        fetches += count;
        const unsigned line_bytes = tags ? params.line_bytes : 64;
        Addr addr = pc;
        unsigned left = count;
        while (left > 0) {
            const unsigned off =
                static_cast<unsigned>(addr & (line_bytes - 1));
            const unsigned fit = (line_bytes - off) / 4;
            const unsigned n = std::min(left, fit == 0 ? 1u : fit);
            const Addr line = addr - off;
            addr += static_cast<Addr>(n) * 4;
            left -= n;
            if (!tags) {
                now = nvm.read(line, params.line_bytes, now, nullptr)
                          .ready + n;
                continue;
            }
            LineRef ref{};
            if (tags->probe(line, ref)) {
                tags->touch(ref);
                ++hits;
            } else {
                ++misses;
                if (tags->valid(ref))
                    tags->invalidate(ref);
                now = nvm.read(line, params.line_bytes,
                               now + params.miss_lookup_latency, nullptr)
                          .ready;
                tags->install(ref, line, nullptr);
                meter.addAj(energy::EnergyCategory::CacheWrite,
                            energy::toAttojoules(params.line_fill_energy));
            }
            meter.addAj(energy::EnergyCategory::CacheRead,
                        energy::toAttojoules(params.access_energy_read *
                                             static_cast<double>(n)) +
                            lru_aj);
            now += static_cast<Cycle>(n) * params.hit_latency;
        }
        return now;
    }

    void powerLoss()
    {
        if (kind == ICacheKind::WarmRestore) {
            warm.clear();
            tags->forEachValidLine([this](LineRef, Addr laddr, bool) {
                warm.push_back(laddr);
            });
        }
        if (kind == ICacheKind::Volatile || kind == ICacheKind::WarmRestore)
            tags->invalidateAll();
    }

    /** InstrCache's default warm restore: 2 cycles, 2 nJ per line. */
    Cycle powerRestore(Cycle now)
    {
        if (kind != ICacheKind::WarmRestore)
            return now;
        for (const Addr laddr : warm) {
            const LineRef victim = tags->victim(laddr);
            if (tags->valid(victim))
                tags->invalidate(victim);
            tags->install(victim, laddr, nullptr);
            now += 2;
            meter.add(energy::EnergyCategory::Restore, 2.0e-9);
        }
        warm.clear();
        return now;
    }

    void ioState(StateIo &io)
    {
        io.section("IC  ");
        io.check(tags != nullptr, "icache snapshot kind");
        if (tags)
            tags->ioState(io);
        io.seq(warm, [&io](Addr &laddr) { io.u64(laddr); });
        group.ioState(io);
    }

    CacheParams params;
    ICacheKind kind;
    energy::EnergyMeter meter;
    mem::NvmMemory nvm;
    std::unique_ptr<TagArray> tags;
    std::vector<Addr> warm;
    energy::Attojoules lru_aj;
    stats::StatGroup group;
    stats::Scalar &fetches;
    stats::Scalar &hits;
    stats::Scalar &misses;
};

} // namespace

TEST(FetchLoop, SameLineHitMatchesTagArrayReference)
{
    Rng rng(0x5a3e11e7ull);
    std::uint64_t same_line_runs = 0;
    for (int trial = 0; trial < 240; ++trial) {
        CacheParams p = randomGeometry(rng);
        p.repl = (trial / 4) % 2 ? ReplPolicy::FIFO : ReplPolicy::LRU;
        const ICacheKind kind = kKinds[trial % 4];
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " kind "
                     << static_cast<int>(kind) << " line " << p.line_bytes
                     << " assoc " << p.assoc << " sets " << p.numSets()
                     << (p.repl == ReplPolicy::LRU ? " LRU" : " FIFO"));
        energy::EnergyMeter meter;
        mem::NvmMemory nvm(nvmParams(), &meter);
        auto ic = std::make_unique<InstrCache>(p, kind, nvm, &meter);
        ReferenceICache ref(p, kind);
        const Addr line_mask = static_cast<Addr>(p.line_bytes) - 1;
        const Addr base = 0x400000;
        Cycle t_ic = 0;
        Cycle t_ref = 0;
        Addr last = base;  // Last instruction of the previous run.
        for (int op = 0; op < 120; ++op) {
            if (rng.nextBool(0.04)) {
                ic->powerLoss();
                ref.powerLoss();
                t_ic = ic->powerRestore(t_ic + 100);
                t_ref = ref.powerRestore(t_ref + 100);
                ASSERT_EQ(t_ic, t_ref) << "op " << op;
            }
            if (rng.nextBool(0.03)) {
                // Restore into a fresh cache: no remembered line.
                SnapshotWriter w;
                StateIo::save(*ic, w);
                const std::vector<std::uint8_t> bytes = w.take();
                auto fresh = std::make_unique<InstrCache>(p, kind, nvm,
                                                          &meter);
                SnapshotReader r(bytes);
                StateIo::load(*fresh, r);
                ic = std::move(fresh);
            }
            Addr pc;
            unsigned count;
            unsigned iters = 1;
            switch (rng.nextBelow(4)) {
              case 0:
              case 1: {
                // Wholly inside the line the last run ended in; now
                // and then two bytes off the instruction grid.
                const Addr line = last & ~line_mask;
                const unsigned slots = p.line_bytes / 4;
                pc = line + 4 * rng.nextBelow(slots) +
                    (rng.nextBool(0.1) ? 2 : 0);
                const unsigned room = static_cast<unsigned>(
                    (p.line_bytes - (pc & line_mask)) / 4);
                count = static_cast<unsigned>(
                    rng.nextRange(1, std::max(1u, room)));
                if (rng.nextBool(0.1))
                    iters = static_cast<unsigned>(rng.nextRange(2, 6));
                ++same_line_runs;
                break;
              }
              case 2:
                // From the last line across one or more line ends.
                pc = (last & ~line_mask) + 4 * rng.nextBelow(
                    p.line_bytes / 4);
                count = static_cast<unsigned>(
                    rng.nextRange(p.line_bytes / 4, 3 * p.line_bytes / 4));
                break;
              default:
                // Elsewhere in a 1.5 KB footprint, maybe a loop body.
                pc = base + 4 * rng.nextBelow(384);
                count = static_cast<unsigned>(rng.nextRange(1, 48));
                iters = static_cast<unsigned>(rng.nextRange(1, 20));
                break;
            }
            t_ic = ic->fetchRun(pc, count, t_ic, iters);
            t_ref = ref.fetchRun(pc, count, t_ref, iters);
            last = pc + 4 * static_cast<Addr>(count - 1);
            ASSERT_EQ(t_ic, t_ref) << "op " << op;
            ASSERT_EQ(nvm.numReads(), ref.nvm.numReads()) << "op " << op;
            ASSERT_EQ(ic->fetches(),
                      static_cast<std::uint64_t>(ref.fetches.value()))
                << "op " << op;
            ASSERT_EQ(statValue(ic->statGroup(), "line_hits"),
                      ref.hits.value())
                << "op " << op;
            ASSERT_EQ(ic->lineMisses(),
                      static_cast<std::uint64_t>(ref.misses.value()))
                << "op " << op;
            ASSERT_EQ(meter.getAj(energy::EnergyCategory::CacheRead),
                      ref.meter.getAj(energy::EnergyCategory::CacheRead))
                << "op " << op;
            ASSERT_EQ(meter.getAj(energy::EnergyCategory::CacheWrite),
                      ref.meter.getAj(energy::EnergyCategory::CacheWrite))
                << "op " << op;
        }
        expectSameMeters(meter, ref.meter);
        SnapshotWriter w;
        StateIo::save(ref, w);
        EXPECT_EQ(bytesOf(*ic), w.take());
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(same_line_runs, 10000u);
}

namespace {

/** A core plus everything it drives, built from one parameter set. */
struct CoreRig
{
    CoreRig(const CacheParams &ip, ICacheKind kind,
            const ICacheStreamParams &sp)
        : nvm(nvmParams(), &meter), ic(ip, kind, nvm, &meter),
          dc(CacheParams{}, nvm, &meter),
          core(CoreParams{}, ic, dc, ICacheStream(sp), &meter)
    {
    }

    energy::EnergyMeter meter;
    mem::NvmMemory nvm;
    InstrCache ic;
    VCacheWT dc;
    InOrderCore core;
};

/**
 * The fetch path before whole-iteration batching: take(left) with the
 * default single-body limit, one single-iteration fetchRun per run,
 * then the same compute charge and data access as executeEvent.
 */
struct ReferenceCore
{
    ReferenceCore(const CacheParams &ip, ICacheKind kind,
                  const ICacheStreamParams &sp)
        : nvm(nvmParams(), &meter), ic(ip, kind, nvm, &meter),
          dc(CacheParams{}, nvm, &meter), stream(sp)
    {
    }

    Cycle execute(const MemAccess &ev, Cycle now)
    {
        const unsigned insns = ev.computeGap + 1;
        Cycle t = now;
        unsigned left = insns;
        while (left > 0) {
            const FetchRun run = stream.take(left);
            EXPECT_EQ(run.iters, 1u);
            EXPECT_LE(run.count, left);
            t = ic.fetchRun(run.pc, run.count, t);
            left -= run.count;
        }
        meter.add(energy::EnergyCategory::Compute,
                  CoreParams{}.compute_energy_per_insn *
                      static_cast<double>(insns));
        instret += insns;
        std::uint64_t load = 0;
        const Cycle ready =
            dc.access(ev.op, ev.addr, ev.size, ev.value, &load, t).ready;
        busy += ready - now;
        return ready;
    }

    energy::EnergyMeter meter;
    mem::NvmMemory nvm;
    InstrCache ic;
    VCacheWT dc;
    ICacheStream stream;
    std::uint64_t instret = 0;
    std::uint64_t busy = 0;
};

ICacheStreamParams
randomStreamParams(Rng &rng)
{
    ICacheStreamParams sp;
    sp.seed = rng.next();
    sp.body_min_insns = static_cast<unsigned>(rng.nextRange(1, 8));
    sp.body_max_insns = sp.body_min_insns +
        static_cast<unsigned>(rng.nextRange(0, 90));
    sp.code_bytes = (4 * sp.body_max_insns) +
        static_cast<unsigned>(4 * rng.nextRange(1, 4096));
    sp.mean_iterations = rng.nextDouble(1.0, 60.0);
    sp.call_probability = rng.nextDouble(0.0, 0.5);
    return sp;
}

unsigned
randomGap(Rng &rng)
{
    switch (rng.nextBelow(3)) {
      case 0: return static_cast<unsigned>(rng.nextBelow(8));
      case 1: return static_cast<unsigned>(rng.nextBelow(600));
      default: return static_cast<unsigned>(rng.nextRange(20000, 60000));
    }
}

} // namespace

TEST(FetchLoop, CoreMatchesSingleIterationReference)
{
    Rng rng(0xc0de10015ull);
    for (int trial = 0; trial < 48; ++trial) {
        const CacheParams ip = randomGeometry(rng);
        const ICacheKind kind = kKinds[trial % 4];
        const ICacheStreamParams sp = randomStreamParams(rng);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " kind "
                     << static_cast<int>(kind) << " body "
                     << sp.body_min_insns << ".." << sp.body_max_insns
                     << " code " << sp.code_bytes);
        CoreRig rig(ip, kind, sp);
        ReferenceCore ref(ip, kind, sp);
        Cycle t_rig = 0;
        Cycle t_ref = 0;
        // A ReplayCache-style rollback point part-way through.
        const int rewind_at = 10 + static_cast<int>(rng.nextBelow(10));
        ICacheStream rig_mark = rig.core.streamSnapshot();
        ICacheStream ref_mark = ref.stream;
        for (int e = 0; e < 30; ++e) {
            if (e == 5) {
                rig_mark = rig.core.streamSnapshot();
                ref_mark = ref.stream;
            }
            if (e == rewind_at) {
                rig.core.restoreStream(rig_mark);
                ref.stream = ref_mark;
            }
            const MemAccess ev{
                static_cast<std::uint16_t>(randomGap(rng)),
                rng.nextBool() ? MemOp::Load : MemOp::Store, 4,
                static_cast<std::uint32_t>(0x1000 +
                                           4 * rng.nextBelow(1024)),
                rng.next() & 0xffffffffu };
            t_rig = rig.core.executeEvent(ev, t_rig);
            t_ref = ref.execute(ev, t_ref);
            ASSERT_EQ(t_rig, t_ref) << "event " << e;
            ASSERT_EQ(bytesOf(rig.core.streamSnapshot()),
                      bytesOf(ref.stream))
                << "event " << e;
            expectSameMeters(rig.meter, ref.meter);
            expectSameICaches(rig.ic, ref.ic);
            EXPECT_EQ(bytesOf(rig.dc), bytesOf(ref.dc));
            EXPECT_EQ(rig.core.instructionsRetired(), ref.instret);
            EXPECT_EQ(statValue(rig.core.statGroup(), "instructions"),
                      static_cast<double>(ref.instret));
            EXPECT_EQ(statValue(rig.core.statGroup(), "busy_cycles"),
                      static_cast<double>(ref.busy));
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(FetchLoop, WholeIterationTakeMatchesSingleBodyTakes)
{
    Rng rng(0x7a4e5ull);
    for (int trial = 0; trial < 200; ++trial) {
        const ICacheStreamParams sp = randomStreamParams(rng);
        ICacheStream batched(sp);
        ICacheStream single(sp);
        for (int i = 0; i < 200; ++i) {
            const unsigned max_insns = randomGap(rng) + 1;
            const unsigned max_iters =
                static_cast<unsigned>(rng.nextRange(1, 1000));
            const FetchRun run = batched.take(max_insns, max_iters);
            ASSERT_GE(run.iters, 1u);
            ASSERT_LE(run.iters, max_iters);
            ASSERT_LE(run.count * run.iters, max_insns);
            for (unsigned k = 0; k < run.iters; ++k) {
                const FetchRun one = single.take(max_insns - k * run.count);
                ASSERT_EQ(one.iters, 1u);
                ASSERT_EQ(one.pc, run.pc);
                ASSERT_EQ(one.count, run.count);
            }
            ASSERT_EQ(bytesOf(batched), bytesOf(single));
        }
    }
}
