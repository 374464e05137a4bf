/** @file Unit tests for the shared TagArray. */

#include <gtest/gtest.h>

#include <cstring>

#include "cache/tag_array.hh"
#include "sim/rng.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

CacheParams
smallParams(ReplPolicy repl = ReplPolicy::LRU)
{
    CacheParams p;
    p.size_bytes = 512;  // 8 lines
    p.assoc = 2;         // 4 sets
    p.line_bytes = 64;
    p.repl = repl;
    return p;
}

/** Install a line filled with a marker byte. */
LineRef
installMarked(TagArray &t, Addr laddr, std::uint8_t marker)
{
    std::uint8_t img[64];
    std::memset(img, marker, sizeof(img));
    const LineRef v = t.victim(laddr);
    if (t.valid(v))
        t.invalidate(v);
    t.install(v, laddr, img);
    return v;
}

} // namespace

TEST(TagArray, Geometry)
{
    TagArray t(smallParams());
    EXPECT_EQ(t.numSets(), 4u);
    EXPECT_EQ(t.assoc(), 2u);
    EXPECT_EQ(t.numLines(), 8u);
    EXPECT_EQ(t.lineAddrOf(0x1234), 0x1200u);
    EXPECT_EQ(t.lineOffset(0x1234), 0x34u);
}

TEST(TagArray, GeometryValidation)
{
    CacheParams p = smallParams();
    p.assoc = 3;
    EXPECT_DEATH({ TagArray t(p); (void)t; }, "");
}

TEST(TagArray, LookupMissOnEmpty)
{
    TagArray t(smallParams());
    EXPECT_FALSE(t.lookup(0x1000).has_value());
}

TEST(TagArray, InstallThenHit)
{
    TagArray t(smallParams());
    installMarked(t, 0x1000, 0xaa);
    const auto ref = t.lookup(0x1020);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(t.lineAddr(*ref), 0x1000u);
    EXPECT_EQ(t.data(*ref)[0], 0xaa);
}

TEST(TagArray, VictimPrefersInvalidWay)
{
    TagArray t(smallParams());
    installMarked(t, 0x1000, 1);
    // Same set (4 sets x 64B lines: set = (addr/64) % 4).
    const LineRef v = t.victim(0x1000 + 4 * 64);
    EXPECT_FALSE(t.valid(v));
}

TEST(TagArray, LruVictimEvictsColdest)
{
    TagArray t(smallParams(ReplPolicy::LRU));
    const Addr a = 0x0, b = 0x100;  // same set (set 0), 4 sets
    const auto ra = installMarked(t, a, 1);
    installMarked(t, b, 2);
    t.touch(ra);  // a is now MRU
    const LineRef v = t.victim(0x200);
    EXPECT_EQ(t.lineAddr(v), b);
}

TEST(TagArray, FifoVictimIgnoresTouches)
{
    TagArray t(smallParams(ReplPolicy::FIFO));
    const Addr a = 0x0, b = 0x100;
    const auto ra = installMarked(t, a, 1);
    installMarked(t, b, 2);
    t.touch(ra);
    t.touch(ra);
    const LineRef v = t.victim(0x200);
    EXPECT_EQ(t.lineAddr(v), a);  // oldest install, touches ignored
}

TEST(TagArray, DirtyCountMaintained)
{
    TagArray t(smallParams());
    const auto r1 = installMarked(t, 0x000, 1);
    const auto r2 = installMarked(t, 0x040, 2);
    EXPECT_EQ(t.dirtyCount(), 0u);
    t.setDirty(r1, true);
    t.setDirty(r2, true);
    EXPECT_EQ(t.dirtyCount(), 2u);
    t.setDirty(r1, true);  // idempotent
    EXPECT_EQ(t.dirtyCount(), 2u);
    t.setDirty(r1, false);
    EXPECT_EQ(t.dirtyCount(), 1u);
    t.invalidate(r2);  // invalidating a dirty line clears it
    EXPECT_EQ(t.dirtyCount(), 0u);
}

TEST(TagArray, InvalidateAllClears)
{
    TagArray t(smallParams());
    const auto r = installMarked(t, 0x000, 1);
    t.setDirty(r, true);
    t.invalidateAll();
    EXPECT_EQ(t.dirtyCount(), 0u);
    EXPECT_FALSE(t.lookup(0x000).has_value());
}

TEST(TagArray, InstallOverDirtyLinePanics)
{
    TagArray t(smallParams());
    const auto r = installMarked(t, 0x000, 1);
    t.setDirty(r, true);
    std::uint8_t img[64] = {};
    EXPECT_DEATH(t.install(r, 0x200, img), "dirty");
}

TEST(TagArray, ForEachValidLineVisitsAll)
{
    TagArray t(smallParams());
    installMarked(t, 0x000, 1);
    const auto r2 = installMarked(t, 0x040, 2);
    t.setDirty(r2, true);
    unsigned total = 0, dirty = 0;
    t.forEachValidLine([&](LineRef, Addr, bool d) {
        ++total;
        dirty += d;
    });
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(dirty, 1u);
}

TEST(TagArray, SetMappingSeparatesSets)
{
    TagArray t(smallParams());
    // 0x000 and 0x040 are consecutive lines -> different sets.
    installMarked(t, 0x000, 1);
    installMarked(t, 0x040, 2);
    const auto a = t.lookup(0x000);
    const auto b = t.lookup(0x040);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->set, b->set);
}

TEST(TagArray, DirectMappedWorks)
{
    CacheParams p = smallParams();
    p.assoc = 1;
    TagArray t(p);
    installMarked(t, 0x000, 1);
    // Conflict: 8 sets now; 0x000 and 0x200 share set 0.
    const LineRef v = t.victim(0x200);
    EXPECT_TRUE(t.valid(v));
    EXPECT_EQ(t.lineAddr(v), 0x000u);
}

TEST(TagArray, ProbeMatchesLookupThenVictim)
{
    Rng rng(0x9e0be5ull);
    const unsigned assocs[] = { 1, 2, 4 };
    for (int trial = 0; trial < 300; ++trial) {
        CacheParams p;
        p.line_bytes = 16u << rng.nextBelow(3);
        p.assoc = assocs[rng.nextBelow(3)];
        p.size_bytes = static_cast<std::size_t>(p.line_bytes) * p.assoc *
            (1u << rng.nextBelow(7));  // 1-64 sets
        p.repl = rng.nextBool() ? ReplPolicy::LRU : ReplPolicy::FIFO;
        TagArray t(p);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " assoc " << p.assoc
                     << " sets " << t.numSets()
                     << (p.repl == ReplPolicy::LRU ? " LRU" : " FIFO"));
        // Twice as many distinct lines as the array holds, so sets fill,
        // conflict and evict.
        const std::uint64_t span = 2ull * t.numLines();
        for (int op = 0; op < 400; ++op) {
            const Addr addr = 0x1000 + rng.nextBelow(span * p.line_bytes);
            LineRef ref{ 0, 0 };
            const bool hit = t.probe(addr, ref);
            const auto found = t.lookup(addr);
            ASSERT_EQ(hit, found.has_value()) << "op " << op;
            if (hit)
                ASSERT_EQ(ref, *found) << "op " << op;
            else
                ASSERT_EQ(ref, t.victim(addr)) << "op " << op;
            // Fill, touch or drop lines; a dropped line leaves its set
            // partly invalid and may leave the set's MRU hint stale.
            switch (rng.nextBelow(4)) {
              case 0:
              case 1:
                if (hit) {
                    t.touch(ref);
                } else {
                    if (t.valid(ref))
                        t.invalidate(ref);
                    t.install(ref, t.lineAddrOf(addr), nullptr);
                }
                break;
              case 2:
                if (hit)
                    t.invalidate(ref);
                break;
              default:
                if (rng.nextBelow(50) == 0)
                    t.invalidateAll();
                break;
            }
        }
    }
}
