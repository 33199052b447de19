// Fault campaigns (docs/robustness.md "Fault campaigns"): seeded
// CLUSTER1 runs that injure the stack at one site per seed and then
// hold the outcome to one commit oracle.
//
//   crash  one hard-kill point (crash.wal / crash.page / crash.commit)
//          freezes the instance; restart recovery rebuilds it from the
//          durable images. Every 8th seed kills the recovery as well,
//          and a second, clean recovery must converge from the
//          artifacts the killed one left behind.
//   pair   a log-shipping follower tails the primary; the kill rotates
//          over all five crash points, so either side can die. The
//          drained follower is read as a replica, then promoted.
//   net    the workload runs over loopback sockets under one of eight
//          network-injury modes (proxy byte chaos, net.* fault points,
//          or both) with resilient clients and leased sessions.
//
// The oracle (CheckCommits) is the same at every site that holds
// commits — the recovered database, the follower, the promoted
// database and the server's WAL: the commits the workers observed
// equal the commits found there, seq for seq, and where a document
// exists it equals a single-threaded replay of them with no buffer
// frame left pinned.

#ifndef XTC_FUZZ_CAMPAIGN_H_
#define XTC_FUZZ_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "node/document.h"
#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "tamix/coordinator.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/recovery.h"

namespace xtc {

enum class Campaign { kCrash, kPair, kNet };

/// "crash" | "pair" | "net"; nullopt for anything else.
std::optional<Campaign> ParseCampaign(std::string_view name);
std::string_view CampaignName(Campaign campaign);

/// The injury `seed` aims at: a kill point (crash, pair) or a chaos-mode
/// name (net). Pair seeds naming crash.apply kill the follower.
std::string SeedInjury(Campaign campaign, uint64_t seed);

/// The seed's run: a tiny-bib, serializable, WAL-on chaos run, plus the
/// campaign's own delta — a 24-frame pool, the crash switch and the
/// armed kill point (crash, pair), or the socket frontend with
/// resilient clients, leased sessions and the mode's net.* fault points
/// (net). The net mode's proxy plan is armed by RunSeed.
RunConfig CampaignRunConfig(Campaign campaign, uint64_t seed);

struct SeedOutcome {
  /// How often the injury fired: 1 for a primary kill, the follower
  /// restarts for a follower kill, the injured chunks and injected
  /// faults for net. Zero is a miss: the seed still passes (the full
  /// oracle ran), but a sweep of misses is not testing anything.
  uint64_t injuries = 0;
  bool recovery_crashed = false;  // crash: the first recovery was killed
  uint64_t committed = 0;         // commits the workers observed
  RunStats run;                   // the workload's counters (repl, net)
  /// crash: the recovered database; pair: the promoted one (`stats` are
  /// the restart or promotion counters). Empty when no kill fired, and
  /// for net.
  OpenResult db;
};

/// One seed: run `run` (normally CampaignRunConfig(campaign, seed),
/// possibly edited), injure it, and check the oracle plus the
/// campaign's own checks. Errors mean a broken contract or a failed run.
StatusOr<SeedOutcome> RunSeed(Campaign campaign, uint64_t seed,
                              const RunConfig& run);

/// The commit oracle. Decodes the {u32 type, u64 body_seed} payload of
/// every commit in `found`, rejects duplicate seqs and requires exact
/// (seq, type, body_seed) equality with `observed`, naming the first
/// lost or phantom seq. With a `doc`, that document must also equal a
/// single-threaded replay of the commits (CheckCommittedReplay) and hold
/// no pinned buffer frame.
Status CheckCommits(const RunConfig& run,
                    const std::vector<CommittedTx>& observed,
                    const std::vector<RecoveredCommit>& found,
                    const Document* doc);

/// The pair campaign's ReplicationObserver: bootstraps a follower from
/// the primary's base images, tails the durable log from a background
/// shipping thread, and — once the primary stops — drains the surviving
/// durable log so the follower holds every durable record. When the
/// seed's pair rotation names crash.apply, the follower is killed once
/// mid-apply and restarted from its own crash artifacts.
class PairReplicationObserver : public ReplicationObserver {
 public:
  explicit PairReplicationObserver(uint64_t seed);
  ~PairReplicationObserver() override;

  Status OnPrimaryReady(const PrimaryHandles& handles) override;
  void OnPrimaryStopped(bool crashed) override XTC_EXCLUDES(mu_);
  ReplicationStats Stats() const override;

  /// Valid after OnPrimaryStopped (drained, quiescent). Null only if
  /// OnPrimaryReady never ran or bootstrap failed.
  Follower* follower() { return follower_.get(); }
  /// First failure of the shipping/restart machinery (drain errors
  /// included).
  Status background_status() const XTC_EXCLUDES(mu_);

 private:
  void ShipLoop() XTC_EXCLUDES(mu_);
  /// Rebuilds the follower from the dead one's own crash artifacts with
  /// a fresh switch (same injector: its decision sequence continues).
  Status RestartFollower();
  Status DrainAfterStop();
  FollowerOptions MakeFollowerOptions() const;

  const uint64_t seed_;
  PrimaryHandles handles_;
  std::thread ship_thread_;
  std::atomic<bool> stop_{false};

  // Handed off by thread lifecycle, not by mu_: set up before
  // ship_thread_ starts, owned exclusively by ShipLoop while it runs,
  // and touched by the caller again only after the join in
  // OnPrimaryStopped (or the destructor). The analysis cannot model a
  // join-ordered handoff, so these stay unannotated on purpose.
  std::unique_ptr<FaultInjector> follower_faults_;
  std::unique_ptr<CrashSwitch> follower_crash_;
  std::unique_ptr<Follower> follower_;
  std::unique_ptr<LogShipper> shipper_;
  uint64_t restarts_ = 0;

  mutable Mutex mu_;
  Status background_status_ XTC_GUARDED_BY(mu_);
};

}  // namespace xtc

#endif  // XTC_FUZZ_CAMPAIGN_H_
