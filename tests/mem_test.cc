/** @file Unit tests for mem: NVM timing/functional model and the
 *  crash-consistency oracle's byte image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "energy/energy_meter.hh"
#include "mem/byte_image.hh"
#include "mem/nvm_memory.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::mem;

namespace {

NvmParams
smallParams()
{
    NvmParams p;
    p.size_bytes = 1u << 16;
    return p;
}

/** The @p bytes low bytes of @p v, little-endian. */
std::vector<std::uint8_t>
le(unsigned bytes, std::uint64_t v)
{
    std::vector<std::uint8_t> out(bytes);
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return out;
}

void
storeLe(ByteImage &img, Addr addr, unsigned bytes, std::uint64_t v)
{
    img.write(addr, le(bytes, v).data(), bytes);
}

void
pokeLe(NvmMemory &nvm, Addr addr, unsigned bytes, std::uint64_t v)
{
    nvm.poke(addr, bytes, le(bytes, v).data());
}

std::vector<std::uint8_t>
saved(const ByteImage &img)
{
    SnapshotWriter w;
    StateIo::save(img, w);
    return w.take();
}

} // namespace

TEST(Nvm, FunctionalWriteReadRoundTrip)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 0xdeadbeef;
    nvm.write(0x100, 4, &v, 0);
    std::uint32_t out = 0;
    nvm.read(0x100, 4, 100, &out);
    EXPECT_EQ(out, v);
}

TEST(Nvm, PeekPokeBypassTiming)
{
    NvmMemory nvm(smallParams());
    const std::uint16_t v = 0xabcd;
    nvm.poke(0x40, 2, &v);
    EXPECT_EQ(nvm.peekInt(0x40, 2), 0xabcdu);
    EXPECT_EQ(nvm.numReads(), 0u);
    EXPECT_EQ(nvm.numWrites(), 0u);
}

TEST(Nvm, UntouchedBytesReadZero)
{
    // The default 8 MiB array is mapped lazily: bytes nothing wrote
    // read as zero, up to and including the last one.
    NvmMemory nvm(NvmParams{});
    const Addr top = nvm.sizeBytes() - 1;
    EXPECT_EQ(nvm.peekInt(0, 8), 0u);
    EXPECT_EQ(nvm.peekInt(nvm.sizeBytes() / 2, 8), 0u);
    EXPECT_EQ(nvm.peekInt(top, 1), 0u);

    const std::size_t tail = 3 * NvmMemory::kJournalPageBytes;
    const std::vector<std::uint8_t> span =
        nvm.snapshotRange(nvm.sizeBytes() - tail, tail);
    ASSERT_EQ(span.size(), tail);
    EXPECT_TRUE(std::all_of(span.begin(), span.end(),
                            [](std::uint8_t b) { return b == 0; }));

    const std::uint8_t v = 0x5a;
    nvm.poke(top, 1, &v);
    EXPECT_EQ(nvm.peekInt(top, 1), 0x5au);
    EXPECT_EQ(nvm.peekInt(top - 7, 8), 0x5aull << 56);
}

TEST(Nvm, ReadLatencyMatchesParams)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const auto r = nvm.read(0x0, 4, 10, nullptr);
    EXPECT_EQ(r.start, 10u);
    EXPECT_EQ(r.ready, 10 + p.readLatency(4));
}

TEST(Nvm, WriteAckIncludesActivation)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto r = nvm.write(0x0, 4, &v, 5);
    EXPECT_EQ(r.ready, 5 + p.t_rcd + p.t_cl + p.t_burst);
}

TEST(Nvm, SameBankWritesSerializeOnRecovery)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto a = nvm.write(0x0, 4, &v, 0);
    // Same 4-byte word -> same bank: must wait out tWR.
    const auto b = nvm.write(0x0, 4, &v, a.ready);
    EXPECT_GE(b.start, a.ready + p.writeRecovery());
}

TEST(Nvm, DifferentBankWritesOverlap)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto a = nvm.write(0x0, 4, &v, 0);
    // Next beat maps to the next bank; only the channel burst gates.
    const auto b = nvm.write(0x8, 4, &v, 0);
    EXPECT_LT(b.start, a.ready);
    EXPECT_GE(b.start, a.start + p.t_burst);
}

TEST(Nvm, ChannelResetClearsBusyState)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    nvm.resetChannel();
    const auto r = nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(r.start, 0u);
}

TEST(Nvm, LineWriteUpdatesAllBytes)
{
    NvmMemory nvm(smallParams());
    std::uint8_t line[64];
    for (unsigned i = 0; i < 64; ++i)
        line[i] = static_cast<std::uint8_t>(i);
    nvm.write(0x1000, 64, line, 0);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(nvm.peekInt(0x1000 + i, 1), i);
}

TEST(Nvm, StatsCountAccesses)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 1;
    const std::uint64_t v64 = 1;
    nvm.write(0, 4, &v, 0);
    nvm.write(8, 8, &v64, 0);
    nvm.read(0, 4, 0, nullptr);
    EXPECT_EQ(nvm.numWrites(), 2u);
    EXPECT_EQ(nvm.numReads(), 1u);
    EXPECT_EQ(nvm.bytesWritten(), 12u);
}

TEST(Nvm, EnergyCharged)
{
    energy::EnergyMeter m;
    NvmParams p = smallParams();
    NvmMemory nvm(p, &m);
    const std::uint32_t v = 1;
    nvm.write(0, 4, &v, 0);
    EXPECT_NEAR(m.get(energy::EnergyCategory::MemWrite),
                p.writeEnergy(4), 1e-18);
    nvm.read(0, 4, 0, nullptr);
    EXPECT_NEAR(m.get(energy::EnergyCategory::MemRead),
                p.readEnergy(4), 1e-18);
}

TEST(Nvm, ResetStatsKeepsContents)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 77;
    nvm.write(0x20, 4, &v, 0);
    nvm.resetStats();
    EXPECT_EQ(nvm.numWrites(), 0u);
    EXPECT_EQ(nvm.peekInt(0x20, 4), 77u);
}

TEST(PersistChecker, TracksStores)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    storeLe(expected, 0x10, 4, 0x04030201);
    pokeLe(nvm, 0x10, 4, 0x04030201);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    pokeLe(nvm, 0x14, 1, 0xff);  // untracked: never compared
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    pokeLe(nvm, 0x12, 1, 0x00);  // tracked, expected 0x03
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x12 });
    // One page: count, page number, valid bitmap, page bytes.
    EXPECT_EQ(saved(expected).size(),
              8u + 8 + ByteImage::kPageBytes / 8 + ByteImage::kPageBytes);
}

TEST(PersistChecker, LatestStoreWins)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    storeLe(expected, 0x10, 4, 0x11111111);
    storeLe(expected, 0x12, 1, 0xff);
    pokeLe(nvm, 0x10, 4, 0x11ff1111);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    pokeLe(nvm, 0x12, 1, 0x11);  // the overwritten value
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x12 });
}

TEST(PersistChecker, CompareDetectsMismatch)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    pokeLe(nvm, 0x30, 4, 0xaabbccdd);
    storeLe(expected, 0x30, 4, 0xaabbccdd);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);

    storeLe(expected, 0x30, 1, 0x00);  // NVM still has 0xdd
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x30 });
}

TEST(PersistChecker, InitialImage)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    const std::uint8_t img[3] = { 1, 2, 3 };
    expected.write(0x80, img, 3);
    nvm.poke(0x80, 3, img);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    pokeLe(nvm, 0x81, 1, 9);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x81 });
}

TEST(ByteImage, WriteStraddlingPagesLandsInBoth)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    storeLe(expected, 0xFFC, 8, 0x8877665544332211ull);
    pokeLe(nvm, 0xFFC, 8, 0x8877665544332211ull);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    // The last byte lives in the second page.
    pokeLe(nvm, 0x1003, 1, 0x00);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x1003 });

    std::vector<std::uint8_t> flat(16, 0xee);  // [0xFF8, 0x1008)
    expected.applyTo(0xFF8, flat.data(), flat.size());
    const std::vector<std::uint8_t> want = {
        0xee, 0xee, 0xee, 0xee, 0x11, 0x22, 0x33, 0x44,
        0x55, 0x66, 0x77, 0x88, 0xee, 0xee, 0xee, 0xee,
    };
    EXPECT_EQ(flat, want);
}

TEST(ByteImage, DiffReportsLowestDivergingPage)
{
    NvmMemory nvm(smallParams());
    ByteImage expected;
    storeLe(expected, 0x3020, 1, 0x5a);  // higher page first
    storeLe(expected, 0x1010, 1, 0x5a);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x1010 });
    pokeLe(nvm, 0x1010, 1, 0x5a);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), Addr{ 0x3020 });
}

TEST(ByteImage, OverlayByteWinsOverNvm)
{
    NvmMemory nvm(smallParams());
    ByteImage expected, overlay;
    storeLe(expected, 0x40, 1, 7);
    storeLe(overlay, 0x40, 1, 7);  // NVM still holds 0
    EXPECT_EQ(expected.firstMismatch(nvm, overlay, {}), std::nullopt);
    pokeLe(nvm, 0x40, 1, 7);
    storeLe(overlay, 0x40, 1, 9);  // a stale overlay hides good NVM
    EXPECT_EQ(expected.firstMismatch(nvm, overlay, {}), Addr{ 0x40 });
}

TEST(ByteImage, SkippedByteIsNotReported)
{
    NvmMemory nvm(smallParams());
    ByteImage expected, skip;
    storeLe(expected, 0x40, 1, 7);
    storeLe(expected, 0x80, 1, 7);
    storeLe(skip, 0x40, 1, 0);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, skip), Addr{ 0x80 });
    storeLe(skip, 0x80, 1, 0);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, skip), std::nullopt);
}

TEST(ByteImage, DiffStopsAtPartialLastPage)
{
    NvmParams p;
    p.size_bytes = 4096 + 100;
    NvmMemory nvm(p);
    ByteImage expected;
    const Addr last = 4096 + 99;
    storeLe(expected, last, 1, 5);
    pokeLe(nvm, last, 1, 5);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), std::nullopt);
    pokeLe(nvm, last, 1, 6);
    EXPECT_EQ(expected.firstMismatch(nvm, {}, {}), last);
}

TEST(ByteImage, IoStateEncodesAscendingBytes)
{
    ByteImage expected;
    storeLe(expected, 0x1FFF, 2, 0xbbaa);  // straddles two pages
    storeLe(expected, 0x10, 1, 0xcc);

    std::vector<std::uint8_t> want;
    auto u64 = [&want](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            want.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    // Per page: its number, its valid bitmap, all its bytes.
    auto page = [&](std::uint64_t pn, std::size_t off, std::uint8_t byte) {
        u64(pn);
        for (std::size_t w = 0; w < ByteImage::kPageBytes / 64; ++w)
            u64(w == off / 64 ? std::uint64_t{ 1 } << (off % 64) : 0);
        std::vector<std::uint8_t> data(ByteImage::kPageBytes, 0);
        data[off] = byte;
        want.insert(want.end(), data.begin(), data.end());
    };
    u64(3);
    page(0, 0x10, 0xcc);
    page(1, 0xFFF, 0xaa);
    page(2, 0, 0xbb);
    const std::vector<std::uint8_t> bytes = saved(expected);
    EXPECT_EQ(bytes, want);

    ByteImage loaded;
    storeLe(loaded, 0x500, 1, 1);  // replaced by the load
    SnapshotReader r(bytes);
    StateIo::load(loaded, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(saved(loaded), want);
}
