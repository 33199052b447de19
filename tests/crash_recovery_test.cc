// End-to-end crash-restart tests driving the crash campaign: a spread
// of seeds covering all three kill sites (crash.wal, crash.page,
// crash.commit), plus the re-entrancy case where the recovery itself is
// killed and a second recovery must converge from the first one's
// artifacts. `faultfuzz --campaign crash` sweeps many more seeds; this
// keeps a representative slice in the default ctest run.

#include <cstdint>
#include <vector>

#include "fuzz/campaign.h"
#include "gtest/gtest.h"

namespace xtc {
namespace {

TEST(CrashRecoveryTest, SeedSweepRecoversEveryKillSite) {
  // Three consecutive seeds rotate through all three kill points.
  uint64_t crashed = 0;
  uint64_t commits = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto outcome = RunSeed(Campaign::kCrash, seed,
                           CampaignRunConfig(Campaign::kCrash, seed));
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << outcome.status().message();
    if (outcome->injuries == 0) continue;
    ++crashed;
    commits += outcome->db.committed.size();
    EXPECT_EQ(outcome->committed, outcome->db.committed.size())
        << "seed " << seed;
    EXPECT_TRUE(outcome->db.stats.performed) << "seed " << seed;
  }
  // The tuned run config makes the kill fire reliably; if none fired,
  // the campaign has drifted and is no longer testing crashes.
  EXPECT_GE(crashed, 2u);
  EXPECT_GT(commits, 0u);
}

TEST(CrashRecoveryTest, CrashDuringRecoveryConverges) {
  // Every 8th seed kills its recovery too. Find one whose first-pass
  // kill fires: the second, clean recovery must converge from the torn
  // artifacts the killed recovery left behind (redo is idempotent, undo
  // compensations are plain logged updates).
  bool exercised = false;
  for (uint64_t seed = 8; seed <= 32 && !exercised; seed += 8) {
    auto outcome = RunSeed(Campaign::kCrash, seed,
                           CampaignRunConfig(Campaign::kCrash, seed));
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << outcome.status().message();
    if (outcome->injuries == 0) continue;
    exercised = true;
    EXPECT_EQ(outcome->committed, outcome->db.committed.size())
        << "seed " << seed
        << (outcome->recovery_crashed ? " (recovery was killed)"
                                      : " (recovery survived its faults)");
  }
  EXPECT_TRUE(exercised);
}

TEST(CrashRecoveryTest, CleanRunStillPassesThroughTheHarness) {
  // With the kill disarmed the campaign degenerates to an ordinary
  // chaos run; RunCluster1's full invariant suite must still pass and
  // the outcome reports no crash.
  RunConfig run = CampaignRunConfig(Campaign::kCrash, 5);
  run.crash_enabled = false;
  run.faults.points.clear();
  auto outcome = RunSeed(Campaign::kCrash, 5, run);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome->injuries, 0u);
}

}  // namespace
}  // namespace xtc
