/**
 * @file
 * Golden statistics snapshots. A fast subset of (design x workload x
 * environment) runs is pinned to committed reference numbers (cycles,
 * NVM writes, outages, final-state digest) in
 * tests/golden/stats_snapshots.txt. The simulator is deterministic,
 * so ANY drift in these numbers means behavior changed — this test
 * turns silent drift into a loud diff.
 *
 * After an intentional behavioral change, regenerate with:
 *   ./stats_snapshot_test --update-snapshots
 * and commit the updated snapshot file alongside the change.
 */

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nvp/experiment.hh"

using namespace wlcache;

namespace {

bool g_update_snapshots = false;

const char *kSnapshotFile =
    WLCACHE_GOLDEN_DIR "/stats_snapshots.txt";

struct Combo
{
    nvp::DesignKind design;
    const char *workload;
};

/** The fast subset: every design on sha, the store-heavy paths on
 *  qsort, one ambient environment. */
const std::vector<Combo> &
combos()
{
    static const std::vector<Combo> c = {
        { nvp::DesignKind::WL, "sha" },
        { nvp::DesignKind::WL, "qsort" },
        { nvp::DesignKind::NvsramWB, "sha" },
        { nvp::DesignKind::VCacheWT, "sha" },
        { nvp::DesignKind::NVCacheWB, "sha" },
        { nvp::DesignKind::Replay, "sha" },
        { nvp::DesignKind::NoCache, "sha" },
        { nvp::DesignKind::NvsramFull, "sha" },
        { nvp::DesignKind::NvsramPractical, "sha" },
        { nvp::DesignKind::WtBuffered, "sha" },
        { nvp::DesignKind::WLLog, "sha" },
        // Store-heavy: write-allocate write-back, persist-queue
        // coalescing and back-pressure.
        { nvp::DesignKind::NVCacheWB, "qsort" },
        { nvp::DesignKind::Replay, "qsort" },
        { nvp::DesignKind::WtBuffered, "qsort" },
    };
    return c;
}

struct Snapshot
{
    std::uint64_t cycles = 0;
    std::uint64_t nvm_writes = 0;
    std::uint64_t outages = 0;
    std::string digest;

    bool
    operator==(const Snapshot &o) const
    {
        return cycles == o.cycles && nvm_writes == o.nvm_writes &&
            outages == o.outages && digest == o.digest;
    }
};

std::string
comboKey(const Combo &c)
{
    return std::string(nvp::designKindName(c.design)) + "/" +
        c.workload;
}

Snapshot
runCombo(const Combo &c)
{
    nvp::ExperimentSpec spec;
    spec.design = c.design;
    spec.workload = c.workload;
    spec.power = energy::TraceKind::RfHome;
    const nvp::RunResult r = nvp::runExperiment(spec);
    EXPECT_TRUE(r.completed) << comboKey(c);
    Snapshot s;
    s.cycles = r.on_cycles;
    s.nvm_writes = r.nvm_writes;
    s.outages = r.outages;
    s.digest = r.final_state_digest;
    return s;
}

std::map<std::string, Snapshot>
loadSnapshots()
{
    std::map<std::string, Snapshot> out;
    std::ifstream in(kSnapshotFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        Snapshot s;
        if (ls >> key >> s.cycles >> s.nvm_writes >> s.outages >>
            s.digest)
            out[key] = s;
    }
    return out;
}

TEST(StatsSnapshot, MatchesGoldenReference)
{
    if (g_update_snapshots) {
        std::ofstream out(kSnapshotFile);
        ASSERT_TRUE(out.good())
            << "cannot write " << kSnapshotFile;
        out << "# Golden statistics snapshots "
               "(stats_snapshot_test --update-snapshots).\n"
            << "# design/workload cycles nvm_writes outages "
               "final_state_digest\n";
        for (const Combo &c : combos()) {
            const Snapshot s = runCombo(c);
            out << comboKey(c) << ' ' << s.cycles << ' '
                << s.nvm_writes << ' ' << s.outages << ' '
                << s.digest << '\n';
        }
        GTEST_SKIP() << "snapshots regenerated, commit "
                     << kSnapshotFile;
    }

    const auto golden = loadSnapshots();
    ASSERT_FALSE(golden.empty())
        << "no snapshots at " << kSnapshotFile
        << "; run stats_snapshot_test --update-snapshots";

    for (const Combo &c : combos()) {
        const std::string key = comboKey(c);
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end())
            << key << " missing from " << kSnapshotFile
            << "; run --update-snapshots";
        const Snapshot now = runCombo(c);
        EXPECT_TRUE(now == it->second)
            << key << " drifted from the committed reference:\n"
            << "  cycles     " << it->second.cycles << " -> "
            << now.cycles << "\n  nvm_writes " << it->second.nvm_writes
            << " -> " << now.nvm_writes << "\n  outages    "
            << it->second.outages << " -> " << now.outages
            << "\n  digest     " << it->second.digest << " -> "
            << now.digest
            << "\nIf this change is intentional, regenerate with "
               "stats_snapshot_test --update-snapshots and commit "
               "the new snapshot file.";
    }
}

/** Every combo in the snapshot file must still be in the fast subset
 *  (catches stale entries after a combo is removed). */
TEST(StatsSnapshot, NoStaleEntries)
{
    if (g_update_snapshots)
        GTEST_SKIP();
    const auto golden = loadSnapshots();
    for (const auto &[key, snap] : golden) {
        bool known = false;
        for (const Combo &c : combos())
            known = known || comboKey(c) == key;
        EXPECT_TRUE(known) << "stale snapshot entry '" << key
                           << "'; run --update-snapshots";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-snapshots")
            g_update_snapshots = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
