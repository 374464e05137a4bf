/**
 * @file
 * Unit tests for the mem/device/ subsystem: the technology-profile
 * registry, the banked queued timing model (back-pressure, tWTR,
 * row-buffer accounting), per-line wear tracking, address-rotation
 * wear leveling, and the STT-RAM hybrid fast region — plus the
 * snapshot round-trips that keep all of it resumable bit-exactly.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "energy/energy_meter.hh"
#include "mem/device/tech_profile.hh"
#include "mem/device/timing_model.hh"
#include "mem/nvm_memory.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::mem;

namespace {

NvmParams
bankedParams()
{
    NvmParams p;
    p.size_bytes = 1u << 16;
    p.model = NvmModel::BankedQueue;
    return p;
}

NvmParams
legacyParams()
{
    NvmParams p;
    p.size_bytes = 1u << 16;
    return p;
}

} // namespace

// --- Technology profiles --------------------------------------------------

TEST(TechProfile, RegistryHasFourTechnologies)
{
    const auto &all = allTechProfiles();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_NE(findTechProfile("reram"), nullptr);
    EXPECT_NE(findTechProfile("stt-ram"), nullptr);
    EXPECT_NE(findTechProfile("fram"), nullptr);
    EXPECT_NE(findTechProfile("flash"), nullptr);
    EXPECT_EQ(findTechProfile("dram"), nullptr);
}

TEST(TechProfile, ReramIsTheDefaultParameterSet)
{
    // The paper's Table 2 numbers are both the NvmParams defaults and
    // the "reram" profile: applying it must be a no-op.
    NvmParams p;
    const NvmParams before = p;
    applyTechProfile(p, *findTechProfile("reram"));
    EXPECT_EQ(p.t_rcd, before.t_rcd);
    EXPECT_EQ(p.t_cl, before.t_cl);
    EXPECT_EQ(p.t_wr, before.t_wr);
    EXPECT_EQ(p.t_wtr, before.t_wtr);
    EXPECT_EQ(p.read_energy_per_byte, before.read_energy_per_byte);
    EXPECT_EQ(p.write_energy_per_byte, before.write_energy_per_byte);
    EXPECT_EQ(p.endurance_writes, before.endurance_writes);
    EXPECT_EQ(p.write_verify_retries, before.write_verify_retries);
}

TEST(TechProfile, ApplicationLeavesGeometryAndPolicyAlone)
{
    NvmParams p = bankedParams();
    p.banks = 4;
    p.queue_depth = 7;
    p.track_wear = true;
    p.hybrid_lines = 3;
    applyTechProfile(p, *findTechProfile("flash"));
    EXPECT_EQ(p.banks, 4u);
    EXPECT_EQ(p.queue_depth, 7u);
    EXPECT_EQ(p.model, NvmModel::BankedQueue);
    EXPECT_TRUE(p.track_wear);
    EXPECT_EQ(p.hybrid_lines, 3u);
    // ...while the technology-owned fields did change.
    EXPECT_EQ(p.write_verify_retries, 2u);
    EXPECT_EQ(p.endurance_writes, 100'000u);
}

TEST(TechProfile, NameHelpersRoundTrip)
{
    NvmModel m = NvmModel::SingleCursor;
    EXPECT_TRUE(nvmModelFromName("banked", m));
    EXPECT_EQ(m, NvmModel::BankedQueue);
    EXPECT_STREQ(nvmModelName(m), "banked");
    EXPECT_FALSE(nvmModelFromName("bogus", m));

    NvmWearScheme s = NvmWearScheme::None;
    EXPECT_TRUE(nvmWearSchemeFromName("rotate", s));
    EXPECT_EQ(s, NvmWearScheme::Rotate);
    EXPECT_STREQ(nvmWearSchemeName(s), "rotate");
    EXPECT_FALSE(nvmWearSchemeFromName("bogus", s));
}

// --- Bank interleave granularity ------------------------------------------

TEST(BankInterleave, ConsecutiveBeatsHitConsecutiveBanks)
{
    const NvmParams p;
    // Both halves of one 8-byte beat share a bank; the next beat is
    // the next bank; the pattern wraps after `banks` beats.
    EXPECT_EQ(p.bankOf(0x0), 0u);
    EXPECT_EQ(p.bankOf(0x4), 0u);
    EXPECT_EQ(p.bankOf(0x8), 1u);
    EXPECT_EQ(p.bankOf(kChannelBeatBytes * p.banks), 0u);
}

// --- Write-to-read turnaround (tWTR) --------------------------------------

TEST(BankedQueue, ReadAfterWritePaysTurnaround)
{
    NvmMemory nvm(bankedParams());
    const NvmParams &p = nvm.params();
    const std::uint32_t v = 1;

    // Write to bank 0; its data burst ends at t_burst. A read from a
    // different bank issued right then must still wait out tWTR on
    // the shared channel before its data can move.
    const auto w = nvm.write(0x0, 4, &v, 0);
    const Cycle write_burst_end = w.start + p.t_burst;
    const auto r = nvm.read(0x8, 4, write_burst_end, nullptr);
    EXPECT_EQ(r.start, write_burst_end + p.t_wtr);
    EXPECT_EQ(nvm.deviceStats().turnaround_stall_cycles,
              static_cast<std::uint64_t>(p.t_wtr));
}

TEST(BankedQueue, ReadWithNoPriorWritePaysNoTurnaround)
{
    NvmMemory nvm(bankedParams());
    const auto r = nvm.read(0x0, 4, 0, nullptr);
    EXPECT_EQ(r.start, 0u);
    EXPECT_EQ(nvm.deviceStats().turnaround_stall_cycles, 0u);
}

TEST(BankedQueue, TurnaroundClearsOnPowerCycle)
{
    NvmMemory nvm(bankedParams());
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    nvm.resetChannel();
    const auto r = nvm.read(0x8, 4, 0, nullptr);
    EXPECT_EQ(r.start, 0u);
}

// --- Queue back-pressure ---------------------------------------------------

TEST(BankedQueue, FullBankQueueStallsTheIssuer)
{
    NvmParams p = bankedParams();
    p.queue_depth = 2;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;

    // Three same-bank writes at cycle 0. The first opens the row and
    // programs in the background; the second queues behind it; the
    // third finds the queue full and stalls until the first's
    // program pulse finishes.
    const Cycle burst = p.beats(4) * p.t_burst;
    const Cycle done1 = burst + p.t_rcd + p.t_cl + p.t_wr;

    const auto w1 = nvm.write(0x0, 4, &v, 0);
    const auto w2 = nvm.write(0x0, 4, &v, 0);
    const auto w3 = nvm.write(0x0, 4, &v, 0);

    EXPECT_EQ(w1.start, 0u);
    EXPECT_EQ(w2.start, burst);  // Channel, not queue, gates it.
    EXPECT_EQ(w3.start, done1);  // Queue slot frees with write 1.
    EXPECT_EQ(nvm.queueStallCycles(),
              static_cast<std::uint64_t>(done1));
    EXPECT_GE(nvm.deviceStats().bank_conflicts, 1u);
}

TEST(BankedQueue, DeepQueueAbsorbsTheSameBurst)
{
    NvmParams p = bankedParams();
    p.queue_depth = 8;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    for (int i = 0; i < 3; ++i)
        nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(nvm.queueStallCycles(), 0u);
}

TEST(BankedQueue, WriteAckDoesNotWaitForProgramming)
{
    // The controller acks a write at the end of its data burst — the
    // tWR program pulse runs in the background, unlike the legacy
    // model where the ack carries the full activate+column latency.
    NvmMemory banked(bankedParams());
    NvmMemory legacy(legacyParams());
    const std::uint32_t v = 1;
    const auto b = banked.write(0x0, 4, &v, 0);
    const auto l = legacy.write(0x0, 4, &v, 0);
    EXPECT_EQ(b.ready, banked.params().t_burst);
    EXPECT_EQ(l.ready, legacy.params().writeAckLatency(4));
    EXPECT_LT(b.ready, l.ready);
}

// --- Row-buffer accounting -------------------------------------------------

TEST(BankedQueue, RowHitSkipsActivationLatencyAndEnergy)
{
    energy::EnergyMeter meter;
    NvmMemory nvm(bankedParams(), &meter);
    const NvmParams &p = nvm.params();

    // Two reads to the same bank and row (one bank-interleave stride
    // apart): the second finds the row open.
    const auto r1 = nvm.read(0x0, 4, 0, nullptr);
    const double miss_energy =
        meter.get(energy::EnergyCategory::MemRead);
    const auto r2 =
        nvm.read(kChannelBeatBytes * p.banks, 4, r1.ready, nullptr);
    const double hit_energy =
        meter.get(energy::EnergyCategory::MemRead) - miss_energy;

    EXPECT_EQ((r1.ready - r1.start) - (r2.ready - r2.start), p.t_rcd);
    EXPECT_DOUBLE_EQ(miss_energy,
                     p.activate_energy + p.read_energy_per_byte * 4);
    EXPECT_NEAR(hit_energy, p.read_energy_per_byte * 4, 1.0e-15);
}

TEST(BankedQueue, PowerCycleClosesAllRows)
{
    NvmMemory nvm(bankedParams());
    const NvmParams &p = nvm.params();
    const auto r1 = nvm.read(0x0, 4, 0, nullptr);
    nvm.resetChannel();
    // Same row as before, but the outage closed it: full activation.
    const auto r2 = nvm.read(0x0, 4, 0, nullptr);
    EXPECT_EQ(r2.ready - r2.start, r1.ready - r1.start);
    EXPECT_EQ(r2.ready - r2.start,
              p.t_burst + p.t_rcd + p.t_cl + p.t_burst);
}

// --- Write-verify retries --------------------------------------------------

TEST(VerifyRetries, LegacyAckStretchesByRetryPulses)
{
    NvmParams p = legacyParams();
    applyTechProfile(p, *findTechProfile("flash"));
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto w = nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(w.ready,
              p.writeAckLatency(4) +
                  p.write_verify_retries * p.writeRecovery());
}

TEST(VerifyRetries, EveryProgramPulsePaysWriteEnergy)
{
    NvmParams p = legacyParams();
    p.write_verify_retries = 2;
    energy::EnergyMeter meter;
    NvmMemory nvm(p, &meter);
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    EXPECT_DOUBLE_EQ(meter.get(energy::EnergyCategory::MemWrite),
                     p.activate_energy +
                         3.0 * p.write_energy_per_byte * 4);
}

// --- Wear tracking ---------------------------------------------------------

TEST(Wear, TracksPerLineCountsAndHeadroom)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    p.endurance_writes = 1000;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    for (int i = 0; i < 5; ++i)
        nvm.write(0x0, 4, &v, 0);
    nvm.write(0x100, 4, &v, 0);

    const WearTracker *w = nvm.wearTracker();
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->lineWear(0), 5u);
    EXPECT_EQ(w->lineWear(0x100 / p.wear_line_bytes), 1u);
    EXPECT_EQ(w->lineWear(7), 0u);
    EXPECT_EQ(nvm.deviceStats().wear_max, 5u);
    EXPECT_EQ(nvm.deviceStats().wear_lines_touched, 2u);
    EXPECT_EQ(nvm.deviceStats().lifetime_headroom, 995u);
}

TEST(Wear, LineStraddlingWriteWearsBothLines)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    NvmMemory nvm(p);
    const std::uint64_t v = 1;
    nvm.write(p.wear_line_bytes - 4, 8, &v, 0);
    EXPECT_EQ(nvm.wearTracker()->lineWear(0), 1u);
    EXPECT_EQ(nvm.wearTracker()->lineWear(1), 1u);
}

TEST(Wear, UntrackedMemoryReportsFullHeadroom)
{
    NvmMemory nvm(legacyParams());
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(nvm.deviceStats().wear_max, 0u);
    EXPECT_EQ(nvm.deviceStats().lifetime_headroom,
              nvm.params().endurance_writes);
}

TEST(Wear, SurvivesPowerCycleUnlikeTimingState)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    nvm.resetChannel();  // Outage: cursors clear, wear must not.
    EXPECT_EQ(nvm.deviceStats().wear_max, 1u);
}

TEST(Wear, TrackerSnapshotRoundTripsBitExactly)
{
    WearTracker a(/*total_lines=*/1 << 20, /*endurance=*/500);
    // Touch lines in two distant shards so the lazily-allocated shard
    // list and its ordering both serialize.
    for (int i = 0; i < 3; ++i)
        a.recordLine(5);
    a.recordLine(WearTracker::kLinesPerShard * 100 + 7);

    SnapshotWriter w;
    StateIo::save(a, w);
    const std::vector<std::uint8_t> bytes = w.data();

    WearTracker b(1 << 20, 500);
    SnapshotReader r(bytes);
    StateIo::load(b, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.lineWear(5), 3u);
    EXPECT_EQ(b.lineWear(WearTracker::kLinesPerShard * 100 + 7), 1u);
    EXPECT_EQ(b.maxWear(), 3u);
    EXPECT_EQ(b.linesTouched(), 2u);
    EXPECT_EQ(b.totalLineWrites(), 4u);

    // The restored tracker re-serializes to the same byte stream.
    SnapshotWriter w2;
    StateIo::save(b, w2);
    EXPECT_EQ(w2.data(), bytes);
}

// --- Wear-leveling rotation ------------------------------------------------

TEST(WearRotate, RotationSpreadsAHotLine)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    p.wear_scheme = NvmWearScheme::Rotate;
    p.rotate_period_writes = 8;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;

    // Hammer one logical line across several rotation periods: the
    // writes must land on multiple physical wear lines.
    for (int i = 0; i < 64; ++i)
        nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(nvm.wearRotator()->rotations(), 8u);
    EXPECT_GT(nvm.deviceStats().wear_lines_touched, 1u);
    EXPECT_LT(nvm.deviceStats().wear_max, 64u);

    // Functional contents stay at the logical address regardless.
    EXPECT_EQ(nvm.peekInt(0x0, 4), 1u);
}

TEST(WearRotate, WithoutRotationTheHotLineTakesEverything)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    for (int i = 0; i < 64; ++i)
        nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(nvm.deviceStats().wear_lines_touched, 1u);
    EXPECT_EQ(nvm.deviceStats().wear_max, 64u);
}

TEST(WearRotate, RotatorSnapshotRoundTrips)
{
    WearRotator a(/*total_lines=*/1024, /*line_bytes=*/64,
                  /*period=*/3);
    for (int i = 0; i < 7; ++i)
        a.onWrite();
    SnapshotWriter w;
    StateIo::save(a, w);

    WearRotator b(1024, 64, 3);
    SnapshotReader r(w.data());
    StateIo::load(b, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.offset(), a.offset());
    EXPECT_EQ(b.rotations(), a.rotations());
    EXPECT_EQ(b.mapLine(5), a.mapLine(5));
}

// --- STT-RAM hybrid fast region --------------------------------------------

TEST(Hybrid, HotLinePromotesAfterThresholdWrites)
{
    NvmParams p = legacyParams();
    p.hybrid_lines = 2;
    p.hybrid_promote_writes = 3;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;

    nvm.write(0x0, 4, &v, 0);
    nvm.write(0x0, 4, &v, 0);
    EXPECT_FALSE(nvm.hybridRegion()->resident(0));
    nvm.write(0x0, 4, &v, 0);  // Third write earns promotion.
    EXPECT_TRUE(nvm.hybridRegion()->resident(0));

    // Resident line is served at fast-region latency on its own port.
    const auto w = nvm.write(0x0, 4, &v, 1000);
    EXPECT_EQ(w.ready - w.start, p.hybrid_access_latency);
}

TEST(Hybrid, FastWritesDoNotWearTheMainArray)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    p.hybrid_lines = 2;
    p.hybrid_promote_writes = 2;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    for (int i = 0; i < 10; ++i)
        nvm.write(0x0, 4, &v, 0);
    // One slow write before the second earns promotion (and is
    // itself served fast); the remaining nine never wear the array.
    EXPECT_EQ(nvm.wearTracker()->lineWear(0), 1u);
}

TEST(Hybrid, LruEvictionWritesTheVictimBack)
{
    NvmParams p = legacyParams();
    p.track_wear = true;
    p.hybrid_lines = 1;
    p.hybrid_promote_writes = 1;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const Addr line1 = p.wear_line_bytes;

    nvm.write(0x0, 4, &v, 0);    // Promotes line 0 (served fast).
    ASSERT_TRUE(nvm.hybridRegion()->resident(0));
    EXPECT_EQ(nvm.wearTracker()->lineWear(0), 0u);
    nvm.write(line1, 4, &v, 0);  // Promotes line 1, evicts line 0.
    EXPECT_FALSE(nvm.hybridRegion()->resident(0));
    EXPECT_TRUE(nvm.hybridRegion()->resident(1));
    // The eviction wrote line 0 back to the main array: wear count.
    EXPECT_EQ(nvm.wearTracker()->lineWear(0), 1u);
}

TEST(Hybrid, ResidencySurvivesPowerCycle)
{
    // STT-RAM is non-volatile: an outage clears port timing but not
    // what lives in the fast region.
    NvmParams p = legacyParams();
    p.hybrid_lines = 2;
    p.hybrid_promote_writes = 1;
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    nvm.resetChannel();
    EXPECT_TRUE(nvm.hybridRegion()->resident(0));
}

TEST(Hybrid, RegionSnapshotRoundTrips)
{
    HybridRegion a(/*slots=*/2, /*promote_writes=*/2);
    a.onWrite(10);
    a.onWrite(10);  // Promote line 10.
    a.onWrite(20);  // Heat 1, not yet promoted.
    SnapshotWriter w;
    StateIo::save(a, w);

    HybridRegion b(2, 2);
    SnapshotReader r(w.data());
    StateIo::load(b, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(b.resident(10));
    EXPECT_FALSE(b.resident(20));
    b.onWrite(20);  // Restored heat: one more write promotes.
    EXPECT_TRUE(b.resident(20));
}

// --- Write-latency distribution -------------------------------------------

TEST(WriteLatency, P99IsALog2UpperBoundOnObservedLatency)
{
    NvmMemory nvm(bankedParams());
    const std::uint32_t v = 1;
    Cycle worst = 0;
    Cycle t = 0;
    for (int i = 0; i < 50; ++i) {
        const auto w = nvm.write(0x0, 4, &v, t);
        worst = std::max(worst, w.ready - t);
        t = w.ready;
    }
    const double p99 = nvm.deviceStats().write_p99_latency;
    EXPECT_GT(p99, 0.0);
    EXPECT_GE(p99, static_cast<double>(worst));
    EXPECT_LE(p99, 2.0 * static_cast<double>(worst));
}

TEST(WriteLatency, NoWritesMeansZero)
{
    NvmMemory nvm(bankedParams());
    EXPECT_EQ(nvm.deviceStats().write_p99_latency, 0.0);
}

// --- Full-device snapshot round-trip ---------------------------------------

TEST(DeviceSnapshot, QueuedWearRotateHybridStateRoundTrips)
{
    NvmParams p = bankedParams();
    p.queue_depth = 2;
    p.track_wear = true;
    p.wear_scheme = NvmWearScheme::Rotate;
    p.rotate_period_writes = 4;
    p.hybrid_lines = 2;
    p.hybrid_promote_writes = 3;

    NvmMemory a(p);
    a.clearJournal();
    const std::uint32_t v = 0x1234;
    Cycle t = 0;
    for (int i = 0; i < 20; ++i) {
        const auto w =
            a.write((i % 5) * 64, 4, &v, t);
        t = w.ready;
    }
    a.read(0x0, 4, t, nullptr);

    SnapshotWriter w;
    StateIo::save(a, w);
    const std::vector<std::uint8_t> bytes = w.data();

    NvmMemory b(p);
    b.clearJournal();
    SnapshotReader r(bytes);
    StateIo::load(b, r);
    EXPECT_TRUE(r.atEnd());

    // Observable state agrees...
    EXPECT_EQ(b.numWrites(), a.numWrites());
    const NvmDeviceStats sa = a.deviceStats(), sb = b.deviceStats();
    EXPECT_EQ(sb.wear_max, sa.wear_max);
    EXPECT_EQ(sb.wear_lines_touched, sa.wear_lines_touched);
    EXPECT_EQ(sb.write_p99_latency, sa.write_p99_latency);
    EXPECT_EQ(b.channelBusyUntil(), a.channelBusyUntil());
    EXPECT_EQ(b.peekInt(0x0, 4), a.peekInt(0x0, 4));

    // ...and the restored device re-serializes byte-identically.
    SnapshotWriter w2;
    StateIo::save(b, w2);
    EXPECT_EQ(w2.data(), bytes);

    // The two devices stay in lockstep on further traffic.
    const auto na = a.write(0x40, 4, &v, t + 100);
    const auto nb = b.write(0x40, 4, &v, t + 100);
    EXPECT_EQ(na.start, nb.start);
    EXPECT_EQ(na.ready, nb.ready);
}

// --- Legacy-model equivalence ---------------------------------------------

TEST(LegacyModel, MatchesHistoricalTimingFormulas)
{
    // The single-cursor model must reproduce the original NvmMemory
    // arbitration: read latency, write ack, tWR bank recovery.
    NvmMemory nvm(legacyParams());
    const NvmParams &p = nvm.params();
    const std::uint32_t v = 1;

    const auto r = nvm.read(0x0, 4, 10, nullptr);
    EXPECT_EQ(r.start, 10u);
    EXPECT_EQ(r.ready, 10 + p.readLatency(4));

    const auto w = nvm.write(0x100, 4, &v, r.ready);
    EXPECT_EQ(w.ready, w.start + p.writeAckLatency(4));
    const auto w2 = nvm.write(0x100, 4, &v, w.ready);
    EXPECT_GE(w2.start, w.ready + p.writeRecovery());
}
