/**
 * @file
 * Unit tests for the sequential NVM journal (mem/log/, DESIGN.md §17)
 * and system-level checks of the WL-Log design built on it: record
 * roundtrip, cyclic wrap-around, checksum-guarded replay truncation,
 * watermark and reserve-driven compaction, crash-at-any-point
 * consistency, snapshot round-trip, and the row-buffer/wear advantage
 * over in-place WL-Cache on the banked device model.
 */

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "energy/energy_meter.hh"
#include "mem/log/nvm_journal.hh"
#include "mem/nvm_memory.hh"
#include "nvp/experiment.hh"
#include "sim/snapshot.hh"

using namespace wlcache;

namespace {

constexpr unsigned kLineBytes = 64;

struct JournalFixture : public ::testing::Test
{
    JournalFixture()
    {
        mem::NvmParams np;
        np.size_bytes = 1u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
    }

    std::unique_ptr<mem::NvmJournal>
    makeJournal(unsigned region_lines = 32,
                unsigned segment_bytes = 512,
                double watermark = 0.9)
    {
        mem::NvmLogParams lp;
        lp.region_lines = region_lines;
        lp.segment_bytes = segment_bytes;
        lp.compaction_watermark = watermark;
        return std::make_unique<mem::NvmJournal>(lp, kLineBytes, *nvm);
    }

    /** Deterministic per-(line, version) payload pattern. */
    static std::vector<std::uint8_t>
    pattern(Addr line, unsigned version)
    {
        std::vector<std::uint8_t> p(kLineBytes);
        for (unsigned i = 0; i < kLineBytes; ++i)
            p[i] = static_cast<std::uint8_t>(line / kLineBytes + 3 * i +
                                             17 * version);
        return p;
    }

    Cycle
    appendLine(mem::NvmJournal &j, Addr line, unsigned version,
               Cycle at)
    {
        const auto p = pattern(line, version);
        const Cycle t = j.ensureSpace(0, at);
        return j.append(line, p.data(), t);
    }

    std::vector<std::uint8_t>
    peekSlot(const mem::NvmJournal &j, unsigned slot)
    {
        std::vector<std::uint8_t> out(kLineBytes);
        j.peekPayload(slot, out.data());
        return out;
    }

    std::vector<std::uint8_t>
    peekHome(Addr line)
    {
        std::vector<std::uint8_t> out(kLineBytes);
        nvm->peek(line, kLineBytes, out.data());
        return out;
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
};

} // namespace

// --- Geometry --------------------------------------------------------------

TEST_F(JournalFixture, SlotStrideIsStripeAligned)
{
    auto j = makeJournal();
    const unsigned stripe =
        mem::kChannelBeatBytes * nvm->params().banks;
    EXPECT_EQ(j->slotBytes(), mem::NvmJournal::kHeaderBytes +
                  kLineBytes);
    EXPECT_GE(j->slotStride(), j->slotBytes());
    EXPECT_EQ(j->slotStride() % stripe, 0u);
    // Stripe alignment puts every slot in the same bank: sequential
    // appends walk one bank's row buffer instead of striding across
    // all banks.
    EXPECT_EQ(nvm->params().bankOf(j->slotAddr(0)),
              nvm->params().bankOf(j->slotAddr(1)));
    EXPECT_EQ(j->slotAddr(1) - j->slotAddr(0), j->slotStride());
    EXPECT_LE(j->regionEnd(), nvm->sizeBytes());
    EXPECT_EQ(j->regionStart() % kLineBytes, 0u);
}

// --- Append / lookup / read ------------------------------------------------

TEST_F(JournalFixture, AppendLookupReadbackRoundtrip)
{
    auto j = makeJournal();
    const Addr a = 0x1000, b = 0x2040;
    appendLine(*j, a, 1, 0);
    const Cycle t = appendLine(*j, b, 1, 100);
    EXPECT_GT(t, 100u);

    ASSERT_NE(j->lookup(a), nullptr);
    ASSERT_NE(j->lookup(b), nullptr);
    EXPECT_EQ(peekSlot(*j, *j->lookup(a)), pattern(a, 1));
    EXPECT_EQ(peekSlot(*j, *j->lookup(b)), pattern(b, 1));

    // Timed read returns the same bytes and advances time.
    std::vector<std::uint8_t> buf(kLineBytes);
    const Cycle r = j->readPayload(*j->lookup(a), buf.data(), t);
    EXPECT_GT(r, t);
    EXPECT_EQ(buf, pattern(a, 1));

    EXPECT_EQ(j->stats().appends, 2u);
    EXPECT_EQ(j->stats().append_bytes,
              2u * j->slotBytes());
    EXPECT_EQ(j->liveLines(), 2u);
}

TEST_F(JournalFixture, RemapKeepsNewestRecordOnly)
{
    auto j = makeJournal();
    const Addr a = 0x3000;
    appendLine(*j, a, 1, 0);
    const unsigned first = *j->lookup(a);
    appendLine(*j, a, 2, 1000);
    const unsigned second = *j->lookup(a);
    EXPECT_NE(first, second);
    EXPECT_EQ(j->liveLines(), 1u);
    EXPECT_EQ(peekSlot(*j, second), pattern(a, 2));
    // The stale slot is reusable: two appends consumed two slots but
    // only one is live, so every other slot is appendable.
    EXPECT_EQ(j->freeSlotsAhead(), j->totalSlots() - 1u);
}

TEST_F(JournalFixture, WrapAroundAcrossRegionBoundary)
{
    auto j = makeJournal();
    // 8 hot lines hammered for 3x the region capacity: the cursor
    // wraps repeatedly and stale records pile up behind it.
    const unsigned kLines = 8;
    const unsigned kAppends = 3 * j->totalSlots();
    Cycle t = 0;
    std::vector<unsigned> version(kLines, 0);
    for (unsigned i = 0; i < kAppends; ++i) {
        const unsigned k = i % kLines;
        const Addr line = 0x4000 + static_cast<Addr>(k) * kLineBytes;
        t = appendLine(*j, line, ++version[k], t);
    }
    EXPECT_EQ(j->stats().appends, kAppends);
    EXPECT_EQ(j->liveLines(), kLines);
    // Newest version per line survives the wraps.
    for (unsigned k = 0; k < kLines; ++k) {
        const Addr line = 0x4000 + static_cast<Addr>(k) * kLineBytes;
        ASSERT_NE(j->lookup(line), nullptr);
        EXPECT_EQ(peekSlot(*j, *j->lookup(line)),
                  pattern(line, version[k]));
    }
    // ...and a post-wrap crash replay agrees with the live mapping.
    auto mapped = [&](Addr line) { return *j->lookup(line); };
    std::vector<unsigned> before;
    for (unsigned k = 0; k < kLines; ++k)
        before.push_back(mapped(0x4000 +
                                static_cast<Addr>(k) * kLineBytes));
    j->onPowerLoss();
    j->bootReplay(t);
    for (unsigned k = 0; k < kLines; ++k) {
        const Addr line = 0x4000 + static_cast<Addr>(k) * kLineBytes;
        ASSERT_NE(j->lookup(line), nullptr);
        EXPECT_EQ(*j->lookup(line), before[k]);
    }
}

// --- Crash recovery --------------------------------------------------------

TEST_F(JournalFixture, BlankRegionReplaysEmpty)
{
    auto j = makeJournal();
    const Cycle t = j->bootReplay(0);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(j->stats().replays, 1u);
    EXPECT_EQ(j->stats().replay_records, 0u);
    EXPECT_EQ(j->liveLines(), 0u);
    EXPECT_EQ(j->cursor(), 0u);
    // The journal is usable after an empty replay.
    appendLine(*j, 0x5000, 1, t);
    EXPECT_EQ(j->liveLines(), 1u);
}

TEST_F(JournalFixture, CorruptTailTruncatesReplayCleanly)
{
    auto j = makeJournal();
    const Addr a = 0x1000, b = 0x1040, c = 0x1080;
    appendLine(*j, a, 1, 0);
    appendLine(*j, b, 1, 100);
    appendLine(*j, c, 1, 200);
    const unsigned tail = *j->lookup(c);

    // Torn tail record: flip one checksum byte in its header. The
    // replay must skip it and keep everything before it.
    std::uint8_t byte = 0;
    const Addr csum_addr = j->slotAddr(tail) + 20;
    nvm->peek(csum_addr, 1, &byte);
    byte ^= 0xff;
    nvm->poke(csum_addr, 1, &byte);

    j->onPowerLoss();
    EXPECT_EQ(j->liveLines(), 0u);
    j->bootReplay(1000);

    EXPECT_EQ(j->stats().replay_records, 2u);
    ASSERT_NE(j->lookup(a), nullptr);
    ASSERT_NE(j->lookup(b), nullptr);
    EXPECT_EQ(j->lookup(c), nullptr);
    EXPECT_EQ(peekSlot(*j, *j->lookup(a)), pattern(a, 1));
    // Cursor resumes after the newest *valid* record; the torn slot
    // is dead and will simply be overwritten.
    EXPECT_EQ(j->cursor(), (*j->lookup(b) + 1) % j->totalSlots());
    EXPECT_EQ(j->nextSeqno(), 4u);
}

TEST_F(JournalFixture, CorruptNewerRecordFallsBackToOlderVersion)
{
    auto j = makeJournal();
    const Addr a = 0x2000;
    appendLine(*j, a, 1, 0);
    const unsigned old_slot = *j->lookup(a);
    appendLine(*j, a, 2, 100);
    const unsigned new_slot = *j->lookup(a);

    // Tear the newer record's header: max-seqno-wins must fall back
    // to the older, still-valid version.
    std::uint8_t byte = 0;
    nvm->peek(j->slotAddr(new_slot) + 20, 1, &byte);
    byte ^= 0x5a;
    nvm->poke(j->slotAddr(new_slot) + 20, 1, &byte);

    j->onPowerLoss();
    j->bootReplay(1000);
    ASSERT_NE(j->lookup(a), nullptr);
    EXPECT_EQ(*j->lookup(a), old_slot);
    EXPECT_EQ(peekSlot(*j, old_slot), pattern(a, 1));
}

TEST_F(JournalFixture, ReplayedCursorNeverOverwritesLiveRecords)
{
    auto j = makeJournal();
    // Build a wrapped live set, crash, replay, then keep appending:
    // the replay-reconstructed cursor can sit inside a segment with
    // live wrap-around records ahead of it, and ensureSpace must
    // migrate them rather than let append clobber them.
    Cycle t = 0;
    const unsigned kLines = 12;
    for (unsigned i = 0; i < 2 * j->totalSlots() + 5; ++i) {
        const unsigned k = i % kLines;
        const Addr line = 0x6000 + static_cast<Addr>(k) * kLineBytes;
        t = appendLine(*j, line, i / kLines + 1, t);
    }
    j->onPowerLoss();
    t = j->bootReplay(t);

    // Fresh lines on top of the recovered state.
    for (unsigned k = 0; k < 20; ++k) {
        const Addr line = 0x8000 + static_cast<Addr>(k) * kLineBytes;
        const auto p = pattern(line, 7);
        t = j->ensureSpace(0, t);
        t = j->append(line, p.data(), t);
    }
    // Every mapped line still decodes to a checksum-valid record that
    // agrees with the volatile mapping (nothing was overwritten).
    const auto records = j->scan();
    std::size_t matched = 0;
    for (const auto &r : records)
        if (j->lookup(r.line_addr) != nullptr &&
            *j->lookup(r.line_addr) == r.slot)
            ++matched;
    EXPECT_EQ(matched, j->liveLines());
    for (unsigned k = 0; k < 20; ++k) {
        const Addr line = 0x8000 + static_cast<Addr>(k) * kLineBytes;
        ASSERT_NE(j->lookup(line), nullptr);
        EXPECT_EQ(peekSlot(*j, *j->lookup(line)), pattern(line, 7));
    }
}

// --- Compaction ------------------------------------------------------------

TEST_F(JournalFixture, WatermarkCompactionMigratesLinesHome)
{
    auto j = makeJournal(32, 512, 0.5);
    Cycle t = 0;
    // 16 distinct live lines = exactly the 0.5 watermark.
    for (unsigned k = 0; k < 16; ++k) {
        const Addr line = 0x7000 + static_cast<Addr>(k) * kLineBytes;
        t = appendLine(*j, line, 1, t);
    }
    EXPECT_EQ(j->stats().compactions, 0u);
    t = j->ensureSpace(0, t);
    // The oldest-ahead segment (4 slots) was migrated home.
    EXPECT_EQ(j->stats().compactions, 1u);
    EXPECT_EQ(j->stats().compacted_lines, j->slotsPerSegment());
    EXPECT_EQ(j->liveLines(), 16u - j->slotsPerSegment());
    for (unsigned k = 0; k < j->slotsPerSegment(); ++k) {
        const Addr line = 0x7000 + static_cast<Addr>(k) * kLineBytes;
        EXPECT_EQ(j->lookup(line), nullptr);
        EXPECT_EQ(peekHome(line), pattern(line, 1));
    }
}

TEST_F(JournalFixture, EnsureSpaceReclaimsForCheckpointReserve)
{
    auto j = makeJournal();
    Cycle t = 0;
    for (unsigned k = 0; k < 20; ++k) {
        const Addr line = 0x9000 + static_cast<Addr>(k) * kLineBytes;
        t = appendLine(*j, line, 1, t);
    }
    ASSERT_LT(j->freeSlotsAhead(), 17u);
    t = j->ensureSpace(16, t);
    EXPECT_GE(j->freeSlotsAhead(), 17u);
    EXPECT_GE(j->stats().compactions, 2u);
    // Migrated lines are home with the right bytes; the rest stay
    // journal-resident.
    for (unsigned k = 0; k < 2 * j->slotsPerSegment(); ++k) {
        const Addr line = 0x9000 + static_cast<Addr>(k) * kLineBytes;
        EXPECT_EQ(j->lookup(line), nullptr);
        EXPECT_EQ(peekHome(line), pattern(line, 1));
    }
    EXPECT_EQ(j->liveLines(), 20u - 2u * j->slotsPerSegment());
}

TEST_F(JournalFixture, CrashAfterCompactionIsConsistentEitherWay)
{
    auto j = makeJournal();
    const Addr a = 0xa000;
    Cycle t = appendLine(*j, a, 1, 0);
    t = j->compactAll(t);
    EXPECT_EQ(j->liveLines(), 0u);
    EXPECT_EQ(peekHome(a), pattern(a, 1));

    // Compaction migrates but does not erase: the journal record is
    // still on media. A crash right after the migration resurrects
    // the mapping at replay — harmless, because both copies carry
    // identical bytes (migrate-before-reuse).
    j->onPowerLoss();
    t = j->bootReplay(t);
    ASSERT_NE(j->lookup(a), nullptr);
    EXPECT_EQ(peekSlot(*j, *j->lookup(a)), peekHome(a));

    // The resurrected line keeps working: a newer version supersedes
    // it and compacts home correctly.
    const auto p2 = pattern(a, 2);
    t = j->ensureSpace(0, t);
    t = j->append(a, p2.data(), t);
    j->compactAll(t);
    EXPECT_EQ(peekHome(a), p2);
}

// --- Snapshot --------------------------------------------------------------

TEST_F(JournalFixture, SnapshotRoundTripsStateByteExactly)
{
    auto j = makeJournal(32, 512, 0.5);
    Cycle t = 0;
    for (unsigned k = 0; k < 18; ++k) {
        const Addr line = 0xb000 + static_cast<Addr>(k) * kLineBytes;
        t = appendLine(*j, line, 1, t);
    }
    j->ensureSpace(0, t);  // Force at least one compaction into stats.

    SnapshotWriter w;
    StateIo::save(*j, w);
    const std::vector<std::uint8_t> bytes = w.data();

    auto k = makeJournal(32, 512, 0.5);
    SnapshotReader r(bytes);
    StateIo::load(*k, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(k->cursor(), j->cursor());
    EXPECT_EQ(k->nextSeqno(), j->nextSeqno());
    EXPECT_EQ(k->liveLines(), j->liveLines());
    EXPECT_EQ(k->stats().appends, j->stats().appends);
    EXPECT_EQ(k->stats().compactions, j->stats().compactions);
    for (unsigned i = 0; i < 18; ++i) {
        const Addr line = 0xb000 + static_cast<Addr>(i) * kLineBytes;
        const unsigned *a = j->lookup(line);
        const unsigned *b = k->lookup(line);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
            EXPECT_EQ(*a, *b);
        }
    }

    // The restored journal re-serializes to the same byte stream.
    SnapshotWriter w2;
    StateIo::save(*k, w2);
    EXPECT_EQ(w2.data(), bytes);
}

// --- System-level: the WL-Log design ---------------------------------------

TEST(WlLogSystem, CompletesCleanAndDrainsJournal)
{
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WLLog;
    spec.workload = "sha";
    spec.no_failure = true;
    spec.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
    };
    const nvp::RunResult res = nvp::runExperiment(spec);
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.final_state_correct);
    EXPECT_GT(res.nvm_log.appends, 0u);
    // Graceful completion drains every journal-resident line home.
    EXPECT_EQ(res.nvm_log.live_lines, 0u);
    EXPECT_EQ(res.nvm_log.replays, 0u);
}

TEST(WlLogSystem, EveryOutageReplaysTheJournalOnce)
{
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WLLog;
    spec.workload = "sha";
    spec.power = energy::TraceKind::RfHome;
    spec.tweak = [](nvp::SystemConfig &cfg) {
        cfg.validate_consistency = true;
    };
    const nvp::RunResult res = nvp::runExperiment(spec);
    EXPECT_TRUE(res.completed);
    EXPECT_TRUE(res.final_state_correct);
    EXPECT_GT(res.outages, 0u);
    EXPECT_EQ(res.nvm_log.replays, res.outages);
    EXPECT_GT(res.nvm_log.replay_bytes, 0u);
}

TEST(WlLogSystem, BeatsInPlaceWlOnBankedDeviceRowHitsAndWear)
{
    // The tentpole claim (PAPER.md / DESIGN.md §17): routing cleans
    // through the sequential journal turns the banked device model's
    // scattered in-place writes into same-bank row-buffer walks and
    // spreads wear across the region.
    auto run = [](nvp::DesignKind design) {
        nvp::ExperimentSpec spec;
        spec.design = design;
        spec.workload = "sha";
        spec.power = energy::TraceKind::RfHome;
        spec.tweak = [](nvp::SystemConfig &cfg) {
            cfg.nvm.model = mem::NvmModel::BankedQueue;
            cfg.nvm.track_wear = true;
        };
        return nvp::runExperiment(spec);
    };
    const nvp::RunResult wl = run(nvp::DesignKind::WL);
    const nvp::RunResult wllog = run(nvp::DesignKind::WLLog);
    ASSERT_TRUE(wl.completed);
    ASSERT_TRUE(wllog.completed);

    const auto hit_rate = [](const nvp::RunResult &r) {
        const mem::NvmDeviceStats &d = r.nvm_device;
        return static_cast<double>(d.row_hits) /
            static_cast<double>(d.row_hits + d.row_misses);
    };
    EXPECT_GT(hit_rate(wllog), hit_rate(wl));
    EXPECT_LT(wllog.nvm_device.wear_max, wl.nvm_device.wear_max);
    EXPECT_GT(wllog.nvm_log.appends, 0u);
}
