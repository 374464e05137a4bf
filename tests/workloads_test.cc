/**
 * @file
 * Tests for the workload kernels: every one of the 23 applications
 * must record a deterministic, aligned, non-trivial trace whose
 * final memory image is reproducible. Parameterized over the whole
 * registry plus targeted semantic checks for selected kernels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>

#include "workloads/guest_env.hh"
#include "workloads/kernels.hh"
#include "workloads/workloads.hh"

using namespace wlcache;
using namespace wlcache::workloads;

TEST(GuestEnv, AllocAligns)
{
    GuestEnv env(1);
    const Addr a = env.alloc(3, 1);
    const Addr b = env.alloc(8, 8);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GT(b, a);
}

TEST(GuestEnv, LoadStoreRoundTripAndTrace)
{
    GuestEnv env(1);
    const Addr a = env.alloc(8, 8);
    env.compute(5);
    env.store<std::uint32_t>(a, 0xabcd1234);
    EXPECT_EQ(env.load<std::uint32_t>(a), 0xabcd1234u);
    ASSERT_EQ(env.trace().size(), 2u);
    EXPECT_EQ(env.trace()[0].computeGap, 5u);
    EXPECT_EQ(env.trace()[0].op, MemOp::Store);
    EXPECT_EQ(env.trace()[0].value, 0xabcd1234u);
    EXPECT_EQ(env.trace()[1].op, MemOp::Load);
}

TEST(GuestEnv, InitDoesNotTrace)
{
    GuestEnv env(1);
    const Addr a = env.alloc(4, 4);
    env.init<std::uint32_t>(a, 77);
    EXPECT_TRUE(env.trace().empty());
    EXPECT_EQ(env.load<std::uint32_t>(a), 77u);
    // Initial image carries the init data.
    EXPECT_EQ(env.initialImage()[a - env.dataBase()], 77);
}

TEST(GuestEnv, FinishFlushesTrailingGap)
{
    GuestEnv env(1);
    env.alloc(8, 8);
    env.compute(42);
    env.finish();
    ASSERT_EQ(env.trace().size(), 1u);
    EXPECT_EQ(env.trace()[0].computeGap, 42u);
}

TEST(GuestEnv, GapAboveLimitIsFatal)
{
    GuestEnv env(1);
    const Addr a = env.alloc(8, 8);
    env.compute(kMaxComputeGap);
    env.store<std::uint32_t>(a, 1);
    ASSERT_EQ(env.trace().back().computeGap, kMaxComputeGap);
    env.compute(kMaxComputeGap + 1);
    EXPECT_EXIT(env.load<std::uint32_t>(a),
                ::testing::ExitedWithCode(1),
                "65536 instructions before the access at 0x100000 "
                "exceed the compute gap one trace event holds");
}

TEST(GuestEnv, HeapGrowsWithAllocation)
{
    GuestEnv env(1);
    EXPECT_TRUE(env.finalImage().empty());
    env.compute(3);
    env.finish();  // reads no heap: none is allocated
    ASSERT_EQ(env.trace().size(), 1u);
    EXPECT_EQ(env.trace()[0].value, 0u);

    env.alloc(3, 1);
    const Addr b = env.alloc(8, 8);
    EXPECT_EQ(env.initialImage().size(), 16u);
    EXPECT_EQ(env.finalImage().size(), 16u);
    env.init<std::uint64_t>(b, 7);
    EXPECT_EQ(env.initialImage()[b - env.dataBase()], 7);
    EXPECT_DEATH(env.load<std::uint32_t>(b + 8), "beyond heap");
}

TEST(GuestEnv, UnalignedAccessPanics)
{
    GuestEnv env(1);
    const Addr a = env.alloc(16, 8);
    EXPECT_DEATH(env.store<std::uint32_t>(a + 1, 1), "unaligned");
}

TEST(GArray, TypedAccessors)
{
    GuestEnv env(1);
    GArray<std::int16_t> arr(env, 8);
    arr.initAt(2, -5);
    EXPECT_EQ(arr.get(2), -5);
    arr.set(3, 1000);
    EXPECT_EQ(arr.get(3), 1000);
    EXPECT_EQ(arr.size(), 8u);
    EXPECT_DEATH(arr.get(8), "");
}

TEST(Registry, HasAll23PaperApplications)
{
    EXPECT_EQ(allWorkloads().size(), 23u);
    unsigned media = 0, mibench = 0;
    for (const auto &w : allWorkloads()) {
        if (std::string(w.suite) == "Media")
            ++media;
        else
            ++mibench;
    }
    EXPECT_EQ(media, 15u);   // MediaBench-class
    EXPECT_EQ(mibench, 8u);  // MiBench-class
    EXPECT_NE(findWorkload("sha"), nullptr);
    EXPECT_NE(findWorkload("FFT_i"), nullptr);
    EXPECT_EQ(findWorkload("nosuch"), nullptr);
}

TEST(Workloads, ConcurrentGetTraceBuildsEachKeyOnce)
{
    // Four threads ask for three keys in different orders; every
    // thread gets the same trace. A second build of one key would
    // race on its cache slot, which the TSan run reports.
    clearTraceCache();
    const std::vector<std::pair<const char *, std::uint64_t>> keys = {
        { "sha", 42 }, { "qsort", 42 }, { "sha", 7 } };
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<const BuiltTrace *>> got(
        kThreads, std::vector<const BuiltTrace *>(keys.size()));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const std::size_t k = (i + t) % keys.size();
                got[t][k] = &getTrace(keys[k].first, 1, keys[k].second);
            }
        });
    for (auto &th : threads)
        th.join();
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(got[0][i]->name, keys[i].first);
        EXPECT_EQ(got[0][i]->seed, keys[i].second);
        EXPECT_EQ(got[0][i]->events.capacity(),
                  got[0][i]->events.size());
    }
}

TEST(Registry, TraceCacheReturnsSameObject)
{
    const auto &a = getTrace("sha", 1, 42);
    const auto &b = getTrace("sha", 1, 42);
    EXPECT_EQ(&a, &b);
    const auto &c = getTrace("sha", 1, 43);
    EXPECT_NE(&a, &c);
}

// --- Per-application properties ---------------------------------------------

class WorkloadTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadTest, ProducesSubstantialTrace)
{
    const auto &t = getTrace(GetParam());
    EXPECT_GT(t.events.size(), 20'000u) << "trace too small";
    EXPECT_LT(t.events.size(), 2'000'000u) << "trace too large";
    EXPECT_GT(t.totalInstructions(), t.events.size());
}

TEST_P(WorkloadTest, HasStoresAndLoads)
{
    const auto &t = getTrace(GetParam());
    const double sf = t.storeFraction();
    EXPECT_GT(sf, 0.005) << "no meaningful store traffic";
    EXPECT_LT(sf, 0.9) << "implausibly store-dominated";
}

TEST_P(WorkloadTest, AccessesAlignedAndLineContained)
{
    const auto &t = getTrace(GetParam());
    for (const auto &ev : t.events) {
        ASSERT_EQ(ev.addr % ev.size, 0u)
            << "unaligned access in " << GetParam();
        ASSERT_EQ(ev.addr / 64, (ev.addr + ev.size - 1) / 64)
            << "line-crossing access in " << GetParam();
    }
}

TEST_P(WorkloadTest, DeterministicAcrossRuns)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    ASSERT_NE(info, nullptr);
    GuestEnv a(42), b(42);
    info->run(a, 1);
    info->run(b, 1);
    a.finish();
    b.finish();
    ASSERT_EQ(a.trace().size(), b.trace().size());
    for (std::size_t i = 0; i < a.trace().size(); ++i) {
        const auto &ea = a.trace()[i];
        const auto &eb = b.trace()[i];
        ASSERT_EQ(ea.addr, eb.addr) << "event " << i;
        ASSERT_EQ(ea.value, eb.value) << "event " << i;
        ASSERT_EQ(ea.computeGap, eb.computeGap) << "event " << i;
    }
    EXPECT_EQ(a.finalImage(), b.finalImage());
}

TEST_P(WorkloadTest, SeedChangesInputs)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    GuestEnv a(1), b(2);
    info->run(a, 1);
    info->run(b, 1);
    EXPECT_NE(a.finalImage(), b.finalImage());
}

TEST_P(WorkloadTest, ReplayingStoresReproducesFinalImage)
{
    // The final image must equal init image + stores applied in
    // order — the invariant the crash-consistency oracle relies on.
    const auto &t = getTrace(GetParam());
    std::vector<std::uint8_t> img = t.initial_image;
    for (const auto &ev : t.events) {
        if (ev.op != MemOp::Store)
            continue;
        const std::size_t off =
            static_cast<std::size_t>(ev.addr - t.image_base);
        ASSERT_LE(off + ev.size, img.size());
        for (unsigned i = 0; i < ev.size; ++i)
            img[off + i] =
                static_cast<std::uint8_t>(ev.value >> (8 * i));
    }
    EXPECT_EQ(img, t.final_image) << GetParam();
}

// --- Recorded content ------------------------------------------------------

namespace {

/**
 * FNV-1a 64 over every event field widened to u64 (little-endian),
 * then the image base and both images: independent of how MemAccess
 * lays its fields out in memory.
 */
std::uint64_t
contentDigest(const BuiltTrace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto byte = [&h](std::uint8_t b) {
        h = (h ^ b) * 0x100000001b3ull;
    };
    const auto word = [&byte](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    for (const MemAccess &ev : t.events) {
        word(ev.computeGap);
        word(static_cast<std::uint64_t>(ev.op));
        word(ev.size);
        word(ev.addr);
        word(ev.value);
    }
    word(t.image_base);
    for (const auto *img : { &t.initial_image, &t.final_image }) {
        word(img->size());
        for (const std::uint8_t b : *img)
            byte(b);
    }
    return h;
}

/** One workload's trace at scale 1 and 2, seed 42. */
struct ContentPin
{
    const char *name;
    struct
    {
        std::size_t events;
        std::uint64_t digest;
    } scale[2];
};

/**
 * Every field of every event, and both memory images, as the
 * 24-byte-event recorder wrote them: a change to the event layout,
 * the guest heap or the kernels moves a digest.
 */
const ContentPin kContentPins[] = {
    { "adpcmdecode",
      { { 104000, 0x22db4d1fa21fb069ull },
        { 208000, 0x103dbc4781842205ull } } },
    { "adpcmencode",
      { { 77000, 0x48ca3314efcbe0f1ull },
        { 154000, 0xdc27d269d0cc81e2ull } } },
    { "epic",
      { { 150481, 0x8cffd655eada7813ull },
        { 302545, 0x2196193216df1a6full } } },
    { "g721decode",
      { { 301001, 0x3c3372a642192b2eull },
        { 602001, 0xe432947443963eabull } } },
    { "g721encode",
      { { 301001, 0xcdffde6f583fab46ull },
        { 602001, 0xba8ef72b623cd0cdull } } },
    { "gsmdecode",
      { { 160321, 0x4eca1f3808cda877ull },
        { 320641, 0x64b022e577492d7aull } } },
    { "gsmencode",
      { { 161807, 0x11c67fd432ef8bf7ull },
        { 323613, 0xa86382edd81e83f0ull } } },
    { "jpegdecode",
      { { 112897, 0x6aae4626543a4788ull },
        { 225793, 0xced3d7d3795719b3ull } } },
    { "jpegencode",
      { { 112897, 0x76b7557f33cad7b7ull },
        { 225793, 0x736c4a5cb381c0a1ull } } },
    { "mpeg2decode",
      { { 86017, 0x43408dc3f95d4730ull },
        { 172033, 0xb357a060af3a23fbull } } },
    { "mpeg2encode",
      { { 144481, 0x5d22c8506baf8308ull },
        { 288961, 0x36247c8a87826740ull } } },
    { "pegwitdecrypt",
      { { 121857, 0x7fcfe5a08b055f80ull },
        { 243713, 0x6eca361906e303b2ull } } },
    { "sha",
      { { 193541, 0x6eb9b8dec20ec7c1ull },
        { 387077, 0x8e73815af7b7d34aull } } },
    { "susancorners",
      { { 255665, 0xf5ef24165a27f25aull },
        { 537777, 0x5d71aff28c6eeab3ull } } },
    { "susanedges",
      { { 255665, 0x6ed609761a3a7c4cull },
        { 537777, 0x1c29edd1fee63f91ull } } },
    { "basicmath",
      { { 46801, 0xdaacb9de2453c442ull },
        { 93601, 0x658fb987aeb8a081ull } } },
    { "qsort",
      { { 210743, 0x77163ef268450808ull },
        { 448860, 0xf7752d61973cd69eull } } },
    { "dijkstra",
      { { 194744, 0x4d0e9e25788007dfull },
        { 389611, 0x704ade77fe0dd904ull } } },
    { "FFT",
      { { 404481, 0x7ccade7dd564f8c5ull },
        { 808961, 0xc3bc183a1dcc1bc8ull } } },
    { "FFT_i",
      { { 506625, 0x1d3a9a49b6572290ull },
        { 915201, 0x3f3643a806cde61aull } } },
    { "patricia",
      { { 374281, 0x4ad79eae153cff7eull },
        { 812650, 0xe9ef48be8e2b3a3cull } } },
    { "rijndael_d",
      { { 74120, 0x24e3e6786c3384daull },
        { 147720, 0x268ca098dd4b7318ull } } },
    { "rijndael_e",
      { { 74120, 0x7afd0522c621e817ull },
        { 147720, 0x3e9bd8c968486897ull } } },
};

} // namespace

TEST_P(WorkloadTest, TraceContentMatchesPinnedDigests)
{
    const std::string name = GetParam();
    const auto pin = std::find_if(
        std::begin(kContentPins), std::end(kContentPins),
        [&](const ContentPin &p) { return p.name == name; });
    ASSERT_NE(pin, std::end(kContentPins)) << "no pin for " << GetParam();
    for (unsigned scale = 1; scale <= 2; ++scale) {
        SCOPED_TRACE("scale " + std::to_string(scale));
        const BuiltTrace &t = getTrace(name, scale, 42);
        EXPECT_EQ(t.events.size(), pin->scale[scale - 1].events);
        EXPECT_EQ(contentDigest(t), pin->scale[scale - 1].digest)
            << "0x" << std::hex << contentDigest(t);
        EXPECT_EQ(t.events.capacity(), t.events.size());
    }
    // Keep at most one workload's traces resident when the whole
    // binary runs in one process.
    clearTraceCache();
}

namespace {

std::vector<const char *>
workloadNames()
{
    std::vector<const char *> names;
    for (const auto &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    All23, WorkloadTest, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// --- Targeted semantic checks ------------------------------------------------

TEST(KernelSemantics, QsortVerifiesSortedOutput)
{
    // runQsort wlc_asserts sortedness internally; a completed trace
    // implies the sort worked.
    const auto &t = getTrace("qsort");
    EXPECT_GT(t.events.size(), 0u);
}

TEST(KernelSemantics, ShaDigestDependsOnInput)
{
    GuestEnv a(1), b(2);
    runSha(a, 1);
    runSha(b, 1);
    // Digest is the last 5 stored words; images must differ.
    EXPECT_NE(a.finalImage(), b.finalImage());
}

TEST(KernelSemantics, RijndaelEncryptDecryptDiffer)
{
    // Same memory-event structure, but InvMixColumns costs far more
    // arithmetic than MixColumns.
    const auto &e = getTrace("rijndael_e");
    const auto &d = getTrace("rijndael_d");
    EXPECT_GT(d.totalInstructions(),
              e.totalInstructions() * 11 / 10);
}

TEST(KernelSemantics, AesMatchesFips197)
{
    // The Rijndael kernel is the real cipher, not a lookalike.
    EXPECT_TRUE(aesSelfTest());
}

TEST(KernelSemantics, ScaleGrowsTraces)
{
    const auto &s1 = getTrace("sha", 1);
    const auto &s2 = getTrace("sha", 2);
    EXPECT_GT(s2.events.size(), s1.events.size() * 3 / 2);
}
