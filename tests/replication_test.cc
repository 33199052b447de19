// Replication tests (DESIGN.md §7): follower bootstrap and tailing,
// replica reads with bounded staleness, torn-chunk resync, promotion,
// follower restart from its own artifacts, and paired crash-restart
// round trips over every kill site.

#include <memory>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "gtest/gtest.h"
#include "node/document.h"
#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "tamix/bib_generator.h"
#include "tamix/coordinator.h"
#include "tamix/invariants.h"
#include "util/crash_switch.h"
#include "util/fault_injector.h"
#include "wal/wal.h"

namespace xtc {
namespace {

/// A tiny WAL-attached primary with its base images captured, ready for
/// hand-driven shipping (no coordinator, no threads).
struct MiniPrimary {
  StorageOptions storage;
  std::unique_ptr<Document> doc;
  std::unique_ptr<Wal> wal;
  BibInfo info;
  PageFileImage base_disk;
  std::string base_log;
};

MiniPrimary MakeMiniPrimary() {
  MiniPrimary p;
  p.storage.buffer_pool_pages = 64;
  p.doc = std::make_unique<Document>(p.storage);
  auto info = GenerateBib(p.doc.get(), BibConfig::Tiny());
  EXPECT_TRUE(info.ok()) << info.status().message();
  p.info = std::move(*info);
  p.wal = std::make_unique<Wal>(WalOptions{});
  p.doc->AttachWal(p.wal.get());
  EXPECT_TRUE(p.doc->buffer().FlushAll().ok());
  EXPECT_TRUE(p.doc->LogCheckpoint().ok());
  p.base_disk = p.doc->page_file().CloneImage();
  p.base_log = p.wal->DurableImage();
  return p;
}

FollowerOptions MiniFollowerOptions(const MiniPrimary& p) {
  FollowerOptions fo;
  fo.storage = p.storage;
  return fo;
}

/// One committed mutation on the primary: renames the first `title`
/// element to `chapter` (or back), logged under `tx` and force-committed.
void CommitRename(MiniPrimary* p, uint64_t tx, uint64_t seq,
                  std::string_view to) {
  auto target = p->doc->NthElementByName(to == "title" ? "chapter" : "title",
                                         0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate name = p->doc->vocabulary().Intern(std::string(to));
  {
    ScopedWalTx scope(tx);
    ASSERT_TRUE(p->doc->RenameElement(*target, name).ok());
  }
  ASSERT_TRUE(p->wal->AppendCommit(tx, seq, "test-payload").ok());
}

TEST(ReplicationTest, BootstrapMatchesPrimaryAndServesReads) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  auto primary_fp = DocumentFingerprint(*p.doc);
  ASSERT_TRUE(primary_fp.ok());
  auto follower_fp = DocumentFingerprint((*follower)->document());
  ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
  EXPECT_EQ(*follower_fp, *primary_fp);

  // Replica read against the bootstrapped state.
  ReplicaReadView view;
  auto subtree = (*follower)->ReadSubtree(Splid::Root(), &view);
  ASSERT_TRUE(subtree.ok()) << subtree.status().message();
  EXPECT_FALSE(subtree->empty());
  EXPECT_EQ(view.applied_lsn, (*follower)->applied_lsn());
  EXPECT_EQ(view.lag_bytes, 0u);
}

TEST(ReplicationTest, BootstrapWithoutCheckpointFails) {
  std::string header_only;
  {
    Wal wal(WalOptions{});
    header_only = wal.DurableImage();
  }
  FollowerOptions fo;
  auto follower = Follower::Bootstrap(fo, PageFileImage{}, header_only);
  EXPECT_FALSE(follower.ok());
}

TEST(ReplicationTest, TailingAppliesCommitsAndMovesWatermarks) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  LogShipper shipper(p.wal.get(), follower->get());

  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  auto shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok()) << shipped.status().message();
  EXPECT_GT(*shipped, 0u);
  EXPECT_EQ((*follower)->received_lsn(), p.wal->DurableLsn());
  EXPECT_EQ((*follower)->applied_lsn(), p.wal->DurableLsn());

  const std::vector<RecoveredCommit> commits = (*follower)->committed();
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].seq, 1u);
  EXPECT_EQ(commits[1].seq, 2u);
  EXPECT_EQ(commits[1].payload, "test-payload");

  auto primary_fp = DocumentFingerprint(*p.doc);
  auto follower_fp = DocumentFingerprint((*follower)->document());
  ASSERT_TRUE(primary_fp.ok());
  ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
  EXPECT_EQ(*follower_fp, *primary_fp);

  // A second round with nothing new ships nothing.
  auto idle = shipper.ShipOnce();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, 0u);
}

TEST(ReplicationTest, UncommittedWorkIsNotShippedUntilDurable) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  // A logged-but-unforced update sits in the group-commit buffer: the
  // shipper must not see it.
  auto target = p.doc->NthElementByName("title", 0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate name = p.doc->vocabulary().Intern("chapter");
  {
    ScopedWalTx scope(3);
    ASSERT_TRUE(p.doc->RenameElement(*target, name).ok());
  }
  auto shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok());
  EXPECT_EQ(*shipped, 0u);
  EXPECT_TRUE((*follower)->committed().empty());

  // The commit forces everything durable; now it ships and applies.
  ASSERT_TRUE(p.wal->AppendCommit(3, 1, "x").ok());
  shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok());
  EXPECT_GT(*shipped, 0u);
  EXPECT_EQ((*follower)->committed().size(), 1u);
}

TEST(ReplicationTest, BoundedStalenessRefusesLaggingReads) {
  MiniPrimary p = MakeMiniPrimary();
  FollowerOptions fo = MiniFollowerOptions(p);
  fo.max_staleness_bytes = 64;
  auto follower = Follower::Bootstrap(fo, p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  // Fresh pair: within bounds.
  EXPECT_TRUE((*follower)->ReadSubtree(Splid::Root()).ok());

  // The primary commits without the shipper running; once the follower
  // learns how far behind it is (first chunk of a partial ship), reads
  // beyond the bound are refused until the lag drains.
  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  // Deliver only a fragment by hand so the follower sees the lag.
  const Lsn from = (*follower)->received_lsn();
  std::string fragmentary = p.wal->DurableSuffix(from, 32);
  ASSERT_TRUE(
      (*follower)->Ingest(fragmentary, p.wal->DurableLsn()).ok());
  ReplicaReadView view;
  auto stale = (*follower)->ReadSubtree(Splid::Root(), &view);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kResourceExhausted);

  // Catching up restores service.
  ASSERT_TRUE(shipper.Drain().ok());
  EXPECT_TRUE((*follower)->ReadSubtree(Splid::Root(), &view).ok());
  EXPECT_EQ(view.lag_bytes, 0u);
}

TEST(ReplicationTest, TornChunkParksTheScanAndResyncRecovers) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());

  CommitRename(&p, 1, 1, "chapter");
  const Lsn from = (*follower)->received_lsn();
  const std::string suffix = p.wal->DurableSuffix(from, 0);
  ASSERT_GT(suffix.size(), 24u);

  // Deliver a torn prefix (mid-record): the scan parks, nothing applies.
  ASSERT_TRUE((*follower)
                  ->Ingest(suffix.substr(0, suffix.size() - 9),
                           p.wal->DurableLsn())
                  .ok());
  EXPECT_TRUE((*follower)->committed().empty());
  EXPECT_LT((*follower)->applied_lsn(), p.wal->DurableLsn());

  // Resync truncates the fragment; a clean drain then applies it all.
  LogShipper shipper(p.wal.get(), follower->get());
  ASSERT_TRUE(shipper.Drain().ok());
  EXPECT_EQ((*follower)->committed().size(), 1u);
  EXPECT_EQ((*follower)->applied_lsn(), p.wal->DurableLsn());
  EXPECT_GE((*follower)->stats().resyncs, 1u);
}

TEST(ReplicationTest, PromoteRollsBackUnshippedLosers) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  auto fp_before = DocumentFingerprint(*p.doc);
  ASSERT_TRUE(fp_before.ok());

  // One committed rename pair (back to the original name), then an
  // uncommitted rename whose updates go durable via an explicit sync —
  // the follower applies them, and promotion must roll them back.
  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  auto target = p.doc->NthElementByName("title", 0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate chap = p.doc->vocabulary().Intern("chapter");
  {
    ScopedWalTx scope(3);
    ASSERT_TRUE(p.doc->RenameElement(*target, chap).ok());
  }
  ASSERT_TRUE(p.wal->Sync().ok());
  ASSERT_TRUE(shipper.Drain().ok());

  auto promoted = (*follower)->Promote(p.storage, WalOptions{});
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  EXPECT_EQ(promoted->committed.size(), 2u);
  EXPECT_EQ(promoted->stats.losers_undone, 1u);
  auto fp_promoted = DocumentFingerprint(*promoted->doc);
  ASSERT_TRUE(fp_promoted.ok()) << fp_promoted.status().message();
  EXPECT_EQ(*fp_promoted, *fp_before);
  EXPECT_TRUE(promoted->doc->Validate().ok());

  // The follower is consumed.
  EXPECT_FALSE((*follower)->ReadSubtree(Splid::Root()).ok());
  EXPECT_FALSE((*follower)->Ingest("x", 0).ok());
}

TEST(ReplicationTest, FollowerRestartsFromItsOwnArtifacts) {
  MiniPrimary p = MakeMiniPrimary();
  // Arm a one-shot apply kill that fires a few records into tailing.
  FaultInjector faults(7);
  CrashSwitch crash(7);
  FaultPointConfig kill;
  kill.probability = 1.0;
  kill.one_shot = true;
  kill.skip_first = 2;
  faults.Arm(fault_points::kCrashApply, kill);
  FollowerOptions fo = MiniFollowerOptions(p);
  fo.fault_injector = &faults;
  fo.crash_switch = &crash;
  auto follower = Follower::Bootstrap(fo, p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  LogShipper shipper(p.wal.get(), follower->get());
  for (uint64_t i = 1; i <= 4; ++i) {
    CommitRename(&p, i, i, i % 2 == 1 ? "chapter" : "title");
  }
  auto shipped = shipper.ShipOnce();
  ASSERT_FALSE(shipped.ok());  // the kill fired mid-apply
  EXPECT_TRUE(crash.crashed());
  EXPECT_FALSE((*follower)->ReadSubtree(Splid::Root()).ok());

  // Restart from the dead follower's own artifacts: received log bytes
  // survive, buffered applied state is rebuilt by the bootstrap replay.
  FollowerOptions fo2 = MiniFollowerOptions(p);
  CrashSwitch fresh(8);
  fo2.fault_injector = &faults;  // one-shot already consumed
  fo2.crash_switch = &fresh;
  auto reborn = Follower::Bootstrap(fo2, (*follower)->DiskImage(),
                                    (*follower)->LogImage());
  ASSERT_TRUE(reborn.ok()) << reborn.status().message();
  LogShipper shipper2(p.wal.get(), reborn->get());
  ASSERT_TRUE(shipper2.Drain().ok());
  EXPECT_EQ((*reborn)->committed().size(), 4u);
  auto primary_fp = DocumentFingerprint(*p.doc);
  auto reborn_fp = DocumentFingerprint((*reborn)->document());
  ASSERT_TRUE(primary_fp.ok());
  ASSERT_TRUE(reborn_fp.ok());
  EXPECT_EQ(*reborn_fp, *primary_fp);
}

// --- Paired crash-restart round trips over every kill site --------------

class PairedKillTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairedKillTest, PairAgreesOnCommitsAndPromotes) {
  const uint64_t seed = GetParam();
  auto outcome = RunSeed(Campaign::kPair, seed,
                         CampaignRunConfig(Campaign::kPair, seed));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome->db.committed.size(), outcome->committed);
  if (SeedInjury(Campaign::kPair, seed) == fault_points::kCrashApply) {
    EXPECT_EQ(outcome->injuries, outcome->run.repl.follower_restarts);
  }
  ASSERT_NE(outcome->db.doc, nullptr);
  Document& doc = *outcome->db.doc;
  EXPECT_TRUE(doc.Validate().ok());

  // The promoted database serves as the new primary: fresh committed
  // writes apply, log and leave it valid. They rename the root element,
  // the one element no workload transaction deletes.
  const uint64_t first_tx = 1u << 20;  // clear of every workload tx id
  const uint64_t first_seq = outcome->db.committed.empty()
                                 ? 1
                                 : outcome->db.committed.back().seq + 1;
  const NameSurrogate renamed = doc.vocabulary().Intern("after-failover");
  const NameSurrogate bib = doc.vocabulary().Intern("bib");
  for (uint64_t i = 0; i < 4; ++i) {
    auto target =
        doc.NthElementByName(i % 2 == 0 ? "bib" : "after-failover", 0);
    ASSERT_TRUE(target.has_value());
    {
      ScopedWalTx scope(first_tx + i);
      ASSERT_TRUE(doc.RenameElement(*target, i % 2 == 0 ? renamed : bib).ok());
    }
    ASSERT_TRUE(outcome->db.wal
                    ->AppendCommit(first_tx + i, first_seq + i, "resumed")
                    .ok());
  }
  EXPECT_TRUE(doc.Validate().ok());
}

// Seeds 0..4 rotate through crash.wal, crash.page, crash.commit,
// crash.ship and crash.apply exactly once each.
INSTANTIATE_TEST_SUITE_P(AllKillSites, PairedKillTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(ReplicationTest, ReplicaReadsSurviveASplitThatKeepsTheAttachPoints) {
  // A value grown past its leaf splits the page, yet the tree's root and
  // entry count stay put, so the follower applies the page images without
  // reattaching its trees. Its readers' leaf hints must not outlive the
  // old page layout.
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  LogShipper shipper(p.wal.get(), follower->get());

  auto title = p.doc->NthElementByName("title", 2);
  ASSERT_TRUE(title.has_value());
  auto text = p.doc->FirstChild(*title);
  ASSERT_TRUE(text.ok() && text->has_value());
  const Splid string_node = (**text).splid.AttributeChild();
  const Splid book = title->Parent();
  ASSERT_TRUE((*follower)->ReadSubtree(book).ok());  // warms the hints
  ASSERT_TRUE((*follower)->LookupId(p.info.book_ids[0]).ok());

  const WalTreeMeta meta_before = p.doc->CurrentTreeMeta();
  const uint64_t leaves_before = p.doc->MeasureOccupancy().leaf_pages;
  const uint64_t reattaches = (*follower)->stats().reattaches;
  {
    ScopedWalTx scope(1);
    ASSERT_TRUE(
        p.doc->UpdateContent(string_node, std::string(1200, 'g')).ok());
  }
  ASSERT_TRUE(p.wal->AppendCommit(1, 1, "grow").ok());
  const WalTreeMeta meta_after = p.doc->CurrentTreeMeta();
  ASSERT_GT(p.doc->MeasureOccupancy().leaf_pages, leaves_before);
  ASSERT_EQ(meta_after.doc_root, meta_before.doc_root);
  ASSERT_EQ(meta_after.doc_count, meta_before.doc_count);

  auto shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok()) << shipped.status().message();
  EXPECT_EQ((*follower)->stats().reattaches, reattaches);

  auto expected = p.doc->Subtree(book);
  auto replica = (*follower)->ReadSubtree(book);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(replica.ok()) << replica.status().message();
  ASSERT_EQ(replica->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*replica)[i].splid, (*expected)[i].splid);
    EXPECT_EQ((*replica)[i].record.Encode(), (*expected)[i].record.Encode());
  }
  for (size_t b = 0; b < p.info.book_ids.size(); ++b) {
    auto replica_id = (*follower)->LookupId(p.info.book_ids[b]);
    ASSERT_TRUE(replica_id.ok());
    EXPECT_EQ(*replica_id, p.doc->LookupId(p.info.book_ids[b]));
  }
  auto primary_fp = DocumentFingerprint(*p.doc);
  auto follower_fp = DocumentFingerprint((*follower)->document());
  ASSERT_TRUE(primary_fp.ok());
  ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
  EXPECT_EQ(*follower_fp, *primary_fp);

  // Every applied update retires the readers' hints, even one that
  // leaves the page layout alone: the first read after it descends from
  // the root, the next starts at the leaf the first one recorded.
  const Splid far = *p.doc->LookupId(p.info.book_ids.back());
  ASSERT_TRUE((*follower)->ReadSubtree(far).ok());
  {
    ScopedWalTx scope(2);
    ASSERT_TRUE(p.doc->UpdateContent(string_node, "short again").ok());
  }
  ASSERT_TRUE(p.wal->AppendCommit(2, 2, "shrink").ok());
  ASSERT_TRUE(shipper.ShipOnce().ok());
  EXPECT_EQ((*follower)->stats().reattaches, reattaches);
  auto read_fixes = [&] {
    const BufferManager& bm = (*follower)->document().buffer();
    const uint64_t before = bm.hits() + bm.misses();
    EXPECT_TRUE((*follower)->ReadSubtree(far).ok());
    return bm.hits() + bm.misses() - before;
  };
  const uint64_t after_apply = read_fixes();
  EXPECT_GT(after_apply, read_fixes());
}

TEST(ReplicationTest, RunStatsCarryReplicationCounters) {
  // A clean run (no kill armed): at shutdown the drain leaves zero lag.
  RunConfig run = CampaignRunConfig(Campaign::kPair, 6);
  run.faults.points.clear();
  PairReplicationObserver observer(6);  // seed 6 leaves the follower alone
  run.replication = &observer;
  auto stats = RunCluster1(run, nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  ASSERT_TRUE(observer.background_status().ok())
      << observer.background_status().message();
  EXPECT_TRUE(stats->repl.enabled);
  EXPECT_GT(stats->repl.shipped_bytes, 0u);
  EXPECT_GT(stats->repl.records_applied, 0u);
  EXPECT_EQ(stats->repl.ship_lag_bytes(), 0u);  // drained at shutdown
}

TEST(ReplicationTest, ReplicationWithoutWalIsRejected) {
  PairReplicationObserver observer(1);
  RunConfig run = CampaignRunConfig(Campaign::kPair, 1);
  run.wal = WalMode::kDisabled;
  run.replication = &observer;
  auto stats = RunCluster1(run, nullptr);
  EXPECT_FALSE(stats.ok());
}

}  // namespace
}  // namespace xtc
