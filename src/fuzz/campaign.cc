#include "fuzz/campaign.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>

#include "tamix/bib_generator.h"
#include "tamix/invariants.h"
#include "util/clock.h"
#include "util/crash_switch.h"
#include "util/fault_injector.h"
#include "util/stats.h"

namespace xtc {

namespace {

/// One network-injury mode: a proxy plan, net.* points armed on the
/// shared injector (both sides of the wire), or both.
struct ChaosMode {
  const char* name;
  bool use_proxy;
  net::ChaosPlan plan;  // meaningful when use_proxy
  std::vector<std::string_view> fault_points;
  double fault_probability = 0.0;
};

std::vector<ChaosMode> BuildModes() {
  std::vector<ChaosMode> modes;
  {
    ChaosMode m{"proxy.drop", true, {}, {}, 0.0};
    m.plan.drop = 0.04;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.truncate", true, {}, {}, 0.0};
    m.plan.truncate = 0.04;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.delay+dup", true, {}, {}, 0.0};
    m.plan.delay = 0.10;
    m.plan.duplicate = 0.05;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.mixed", true, {}, {}, 0.0};
    m.plan.drop = 0.02;
    m.plan.truncate = 0.02;
    m.plan.delay = 0.05;
    m.plan.duplicate = 0.03;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  modes.push_back(ChaosMode{
      "fault.net.send", false, {}, {fault_points::kNetSend}, 0.03});
  modes.push_back(ChaosMode{
      "fault.net.recv", false, {}, {fault_points::kNetRecv}, 0.03});
  modes.push_back(ChaosMode{"fault.net.close+delay",
                            false,
                            {},
                            {fault_points::kNetClose, fault_points::kNetDelay},
                            0.02});
  {
    ChaosMode m{"all",
                true,
                {},
                {fault_points::kNetSend, fault_points::kNetRecv,
                 fault_points::kNetClose, fault_points::kNetDelay},
                0.01};
    m.plan.drop = 0.01;
    m.plan.truncate = 0.01;
    m.plan.delay = 0.03;
    m.plan.duplicate = 0.02;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  return modes;
}

const std::vector<ChaosMode>& Modes() {
  static const std::vector<ChaosMode>* modes =
      new std::vector<ChaosMode>(BuildModes());
  return *modes;
}

/// Net seeds are taken as at least 1 throughout.
uint64_t NetSeed(uint64_t seed) { return seed == 0 ? 1 : seed; }

const ChaosMode& ModeFor(uint64_t seed) {
  return Modes()[NetSeed(seed) % Modes().size()];
}

/// Crash seeds rotate over the three primary-side kill points, pair
/// seeds over all five (AllCrashPoints() lists the primary ones first).
size_t KillRotation(Campaign campaign) {
  return campaign == Campaign::kCrash ? 3 : AllCrashPoints().size();
}

FaultPointConfig OneShotKill(uint64_t skip_first) {
  FaultPointConfig kill;
  kill.probability = 1.0;
  kill.one_shot = true;
  kill.skip_first = skip_first;
  return kill;
}

StorageOptions Unfaulted(StorageOptions storage) {
  storage.fault_injector = nullptr;
  storage.crash_switch = nullptr;
  return storage;
}

using CommitKey = std::tuple<uint64_t, uint32_t, uint64_t>;

std::string FirstSeq(const std::vector<CommitKey>& keys) {
  return std::to_string(std::get<0>(keys.front()));
}

StatusOr<SeedOutcome> RunCrash(uint64_t seed, const RunConfig& run) {
  ChaosReport report;
  SeedOutcome out;
  XTC_ASSIGN_OR_RETURN(out.run, RunCluster1(run, &report));
  out.committed = report.committed.size();
  if (!report.crashed) return out;  // RunCluster1 checked the clean run
  out.injuries = 1;

  // Restart recovery from the durable images. Every 8th seed arms the
  // kill points inside the recovering instance too.
  StorageOptions storage = Unfaulted(run.storage);
  WalOptions wal_options;
  std::unique_ptr<FaultInjector> rec_faults;
  std::unique_ptr<CrashSwitch> rec_crash;
  if (seed % 8 == 0) {
    rec_faults = std::make_unique<FaultInjector>(seed * 0x9e3779b9ULL + 1);
    rec_crash = std::make_unique<CrashSwitch>(seed + 0x5bd1e995ULL);
    rec_faults->Arm(fault_points::kCrashWal, OneShotKill(seed % 7));
    rec_faults->Arm(fault_points::kCrashPage, OneShotKill(seed % 7));
    storage.fault_injector = rec_faults.get();
    storage.crash_switch = rec_crash.get();
    wal_options.fault_injector = rec_faults.get();
    wal_options.crash_switch = rec_crash.get();
  }
  CrashArtifacts artifacts;
  auto opened = OpenDatabase(storage, wal_options, report.disk_image,
                             report.log_image, 2, &artifacts);
  if (!opened.ok() && rec_crash != nullptr && rec_crash->crashed()) {
    // Recovery itself was killed. Recover again, fault-free, from the
    // artifacts the dead attempt left behind — the undo chains may have
    // grown (compensations of compensations), but the net effect must
    // converge to the same recovered state.
    out.recovery_crashed = true;
    opened = OpenDatabase(Unfaulted(run.storage), WalOptions{},
                          artifacts.disk_image, artifacts.log_image);
  }
  if (!opened.ok()) {
    return opened.status().Annotate("restart recovery failed");
  }
  out.db = std::move(*opened);
  XTC_RETURN_IF_ERROR(
      CheckCommits(run, report.committed, out.db.committed, out.db.doc.get())
          .Annotate("recovered database"));
  return out;
}

StatusOr<SeedOutcome> RunPair(uint64_t seed, RunConfig run) {
  PairReplicationObserver observer(seed);
  run.replication = &observer;
  ChaosReport report;
  SeedOutcome out;
  XTC_ASSIGN_OR_RETURN(out.run, RunCluster1(run, &report));
  XTC_RETURN_IF_ERROR(
      observer.background_status().Annotate("replication machinery"));
  out.committed = report.committed.size();
  out.injuries = report.crashed ? 1 : out.run.repl.follower_restarts;
  Follower* follower = observer.follower();
  if (follower == nullptr) {
    return Status::Internal("observer holds no follower after the run");
  }
  // The drain shipped the full durable prefix, so the follower must hold
  // exactly the observed commits, no matter which side died or when.
  XTC_RETURN_IF_ERROR(
      CheckCommits(run, report.committed, follower->committed(), nullptr)
          .Annotate("follower"));

  // Replica reads on the drained follower, before promotion. The bib
  // build is deterministic: a scratch copy names the ids to resolve.
  BibInfo info;
  {
    Document scratch(Unfaulted(run.storage));
    XTC_ASSIGN_OR_RETURN(info, GenerateBib(&scratch, run.bib));
  }
  std::vector<bool> replica_found;
  for (const std::string& id : info.book_ids) {
    XTC_ASSIGN_OR_RETURN(std::optional<Splid> splid, follower->LookupId(id));
    replica_found.push_back(splid.has_value());
  }

  XTC_ASSIGN_OR_RETURN(out.db,
                       follower->Promote(Unfaulted(run.storage), WalOptions{}));
  const Document& promoted = *out.db.doc;
  XTC_RETURN_IF_ERROR(
      CheckCommits(run, report.committed, out.db.committed, &promoted)
          .Annotate("promoted database"));

  // Replica reads run at isolation NONE over raw redo state, so they can
  // see an in-flight transaction the promotion's undo pass rolls back.
  // Each undone loser can explain at most one such disagreement.
  uint64_t disagreements = 0;
  for (size_t i = 0; i < info.book_ids.size(); ++i) {
    if (promoted.LookupId(info.book_ids[i]).has_value() != replica_found[i]) {
      ++disagreements;
    }
  }
  const uint64_t losers = out.db.stats.losers_undone;
  if (disagreements > losers) {
    return Status::Internal(
        std::to_string(disagreements) +
        " replica reads disagree with the promoted database but only " +
        std::to_string(losers) + " loser(s) were undone");
  }
  if (!report.crashed) {
    // Clean shutdown: the pair must agree on content, byte for byte.
    XTC_ASSIGN_OR_RETURN(uint64_t fingerprint, DocumentFingerprint(promoted));
    if (fingerprint != report.document_fingerprint) {
      return Status::Internal(
          "promoted document fingerprint diverges from the primary's after "
          "a clean run");
    }
  }
  return out;
}

StatusOr<SeedOutcome> RunNet(uint64_t seed, RunConfig run) {
  const ChaosMode& mode = ModeFor(seed);
  net::ChaosPlan plan;
  if (mode.use_proxy) {
    plan = mode.plan;
    plan.seed = NetSeed(seed);
    // Let every connection's handshake chunks through: hello (and
    // resume) must be able to succeed or a severed client could never
    // re-establish its session.
    plan.skip_first_chunks = 2;
    plan.shape_conn_index = -1;  // probabilistic chaos on every conn
    run.net.chaos = &plan;
  }
  ChaosReport report;
  SeedOutcome out;
  XTC_ASSIGN_OR_RETURN(out.run, RunCluster1(run, &report));
  out.committed = report.committed.size();
  const RunStats& stats = out.run;
  if (stats.server.sessions_opened == 0) {
    return Status::Internal("run did not use the socket frontend");
  }

  // Server WAL truth against client-observed outcomes. RunCluster1
  // already held the live document to the replay and pin checks.
  if (report.log_image.empty()) {
    return Status::Internal("run produced no durable log image");
  }
  bool torn_tail = false;
  XTC_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                       Wal::ScanDurable(report.log_image, &torn_tail));
  if (torn_tail) {
    // The server shut down cleanly (Drain syncs); a torn durable tail
    // here means the log itself is broken.
    return Status::Internal("clean shutdown left a torn WAL tail");
  }
  std::vector<RecoveredCommit> wal_commits;
  for (const WalRecord& r : records) {
    if (r.type != WalRecordType::kCommit) continue;
    wal_commits.push_back(RecoveredCommit{r.tx, r.commit_seq, r.payload});
  }
  XTC_RETURN_IF_ERROR(CheckCommits(run, report.committed, wal_commits, nullptr)
                          .Annotate("server WAL"));

  // The server was alive the whole time and the lease outlives the run:
  // every torn commit must have been resolved exactly once.
  if (stats.clients.unknown_commits != 0) {
    return Status::Internal(std::to_string(stats.clients.unknown_commits) +
                            " commit(s) ended kUnknown with a live server");
  }
  if (stats.server.active_sessions != 0 || stats.server.parked_sessions != 0) {
    return Status::Internal(
        "session leak after drain: " +
        std::to_string(stats.server.active_sessions) + " active, " +
        std::to_string(stats.server.parked_sessions) + " parked");
  }
  const net::ChaosProxyStats& chaos = stats.chaos;
  out.injuries = chaos.drops + chaos.truncations + chaos.delays +
                 chaos.duplicates + chaos.cuts + chaos.stalls +
                 report.injected_faults;
  return out;
}

}  // namespace

std::optional<Campaign> ParseCampaign(std::string_view name) {
  for (Campaign c : {Campaign::kCrash, Campaign::kPair, Campaign::kNet}) {
    if (name == CampaignName(c)) return c;
  }
  return std::nullopt;
}

std::string_view CampaignName(Campaign campaign) {
  switch (campaign) {
    case Campaign::kCrash: return "crash";
    case Campaign::kPair: return "pair";
    case Campaign::kNet: return "net";
  }
  return "?";
}

std::string SeedInjury(Campaign campaign, uint64_t seed) {
  if (campaign == Campaign::kNet) return ModeFor(seed).name;
  return std::string(AllCrashPoints()[seed % KillRotation(campaign)]);
}

RunConfig CampaignRunConfig(Campaign campaign, uint64_t seed) {
  RunConfig c;
  c.isolation = IsolationLevel::kSerializable;
  c.seed = seed == 0 ? 1 : seed;
  c.bib = BibConfig::Tiny();
  c.mix.clients = 2;
  c.mix.query_book = 1;
  c.mix.chapter = 1;
  c.mix.rename_topic = 1;
  c.mix.lend_and_return = 2;
  c.mix.del_book = 1;
  // Scaled (1/50) effective values: 500 ms run, 5 ms commit think time.
  c.run_duration = std::chrono::seconds(25);
  c.wait_after_commit = Millis(250);
  c.wait_after_operation = Millis(50);
  c.max_initial_wait = Millis(500);
  c.wal = WalMode::kEnabled;
  c.checkpoint_every_commits = 8;

  if (campaign == Campaign::kNet) {
    const ChaosMode& mode = ModeFor(seed);
    c.frontend = Frontend::kSocket;
    c.max_retries = 3;
    // 1 s lock waits: a parked predecessor must finish well inside the
    // resume steal window.
    c.lock_wait_timeout = std::chrono::seconds(50);
    // A lease longer than any seed's wall clock means every torn commit
    // must resolve through resume + the outcome table.
    c.net.max_reconnect_attempts = 12;
    c.net.connect_timeout = std::chrono::seconds(2);
    c.net.io_timeout = std::chrono::seconds(2);
    c.net.backoff = Millis(5);
    c.net.backoff_max = Millis(50);
    c.net.session_lease = std::chrono::seconds(30);
    c.net.outcome_table_entries = 8;
    FaultPointConfig fp;
    fp.probability = mode.fault_probability;
    // Stagger the first firing deeper into the run as seeds grow, so
    // early startup traffic is not always the victim.
    fp.skip_first = 10 + (NetSeed(seed) / Modes().size()) % 40;
    for (std::string_view p : mode.fault_points) {
      c.faults.points.emplace_back(std::string(p), fp);
    }
    return c;
  }

  // Smaller than the tiny bib's working set: steady eviction write-backs
  // keep crash.page live and exercise WAL-before-data on every one.
  c.storage.buffer_pool_pages = 24;
  c.crash_enabled = true;
  c.max_retries = 2;
  const std::string kill_point = SeedInjury(campaign, seed);
  // crash.apply seeds leave the primary's plan empty; the pair observer
  // arms that kill inside the follower instead.
  if (kill_point != fault_points::kCrashApply) {
    const uint64_t n = KillRotation(campaign);
    c.faults.points.emplace_back(kill_point, OneShotKill(3 + (seed / n) % 40));
  }
  return c;
}

StatusOr<SeedOutcome> RunSeed(Campaign campaign, uint64_t seed,
                              const RunConfig& run) {
  StatusOr<SeedOutcome> out = Status::Internal("unknown campaign");
  switch (campaign) {
    case Campaign::kCrash: out = RunCrash(seed, run); break;
    case Campaign::kPair: out = RunPair(seed, run); break;
    case Campaign::kNet: out = RunNet(seed, run); break;
  }
  if (!out.ok()) {
    return out.status().Annotate(std::string(CampaignName(campaign)) +
                                 " seed " + std::to_string(seed) + " (" +
                                 SeedInjury(campaign, seed) + ")");
  }
  return out;
}

Status CheckCommits(const RunConfig& run,
                    const std::vector<CommittedTx>& observed,
                    const std::vector<RecoveredCommit>& found,
                    const Document* doc) {
  std::vector<CommittedTx> decoded;
  decoded.reserve(found.size());
  std::set<uint64_t> seqs;
  for (const RecoveredCommit& c : found) {
    if (c.payload.size() != 12) {
      return Status::DataLoss("commit record of tx " + std::to_string(c.tx) +
                              " carries a malformed payload (" +
                              std::to_string(c.payload.size()) + " bytes)");
    }
    uint32_t type = 0;
    uint64_t body_seed = 0;
    std::memcpy(&type, c.payload.data(), sizeof(type));
    std::memcpy(&body_seed, c.payload.data() + 4, sizeof(body_seed));
    if (type >= kNumTxTypes) {
      return Status::DataLoss("commit record of tx " + std::to_string(c.tx) +
                              " names unknown transaction type " +
                              std::to_string(type));
    }
    if (!seqs.insert(c.seq).second) {
      return Status::Internal("commit seq " + std::to_string(c.seq) +
                              " appears twice");
    }
    decoded.push_back(CommittedTx{c.seq, static_cast<TxType>(type), body_seed});
  }

  // Exact agreement: a worker only records a commit after its record was
  // forced durable, and a durable commit record always reaches the
  // worker's log — so the two sets must match seq for seq.
  auto keys = [](const std::vector<CommittedTx>& txs) {
    std::vector<CommitKey> out;
    out.reserve(txs.size());
    for (const CommittedTx& t : txs) {
      out.emplace_back(t.seq, static_cast<uint32_t>(t.type), t.body_seed);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<CommitKey> want = keys(observed);
  const std::vector<CommitKey> got = keys(decoded);
  if (want != got) {
    std::vector<CommitKey> lost;
    std::vector<CommitKey> phantom;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(lost));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(phantom));
    std::string msg = "commit-set mismatch:";
    if (!lost.empty()) {
      msg += " " + std::to_string(lost.size()) +
             " observed commit(s) missing (first seq " + FirstSeq(lost) + ")";
    }
    if (!phantom.empty()) {
      msg += " " + std::to_string(phantom.size()) +
             " commit(s) no worker observed (first seq " + FirstSeq(phantom) +
             ")";
    }
    return Status::Internal(msg);
  }
  if (doc == nullptr) return Status::OK();

  // Serializable run: commit order is a serialization order, so the
  // document must equal a single-threaded replay of exactly these
  // commits. Loser effects surviving, or committed effects lost, both
  // show up here as a node diff.
  XTC_RETURN_IF_ERROR(CheckCommittedReplay(run, decoded, *doc)
                          .Annotate("document diverges from replay"));
  const size_t pinned = doc->buffer().PinnedFrames();
  if (pinned != 0) {
    return Status::Internal(std::to_string(pinned) +
                            " buffer frames left pinned");
  }
  return Status::OK();
}

// --- PairReplicationObserver ---------------------------------------------

PairReplicationObserver::PairReplicationObserver(uint64_t seed)
    : seed_(seed) {}

PairReplicationObserver::~PairReplicationObserver() {
  // Safety net for setup paths that error out between OnPrimaryReady and
  // OnPrimaryStopped; a normal run joins in OnPrimaryStopped.
  stop_.store(true, std::memory_order_relaxed);
  if (ship_thread_.joinable()) ship_thread_.join();
}

FollowerOptions PairReplicationObserver::MakeFollowerOptions() const {
  FollowerOptions fo;
  fo.storage = handles_.storage;
  fo.fault_injector = follower_faults_.get();
  fo.crash_switch = follower_crash_.get();
  return fo;
}

Status PairReplicationObserver::OnPrimaryReady(const PrimaryHandles& handles) {
  handles_ = handles;
  if (SeedInjury(Campaign::kPair, seed_) == fault_points::kCrashApply) {
    follower_faults_ =
        std::make_unique<FaultInjector>(seed_ * 0x9e3779b9ULL + 17);
    follower_faults_->Arm(fault_points::kCrashApply,
                          OneShotKill(8 + (seed_ / 5) % 80));
    follower_crash_ = std::make_unique<CrashSwitch>(seed_ + 0x51ULL);
  }
  XTC_ASSIGN_OR_RETURN(
      follower_, Follower::Bootstrap(MakeFollowerOptions(), handles_.base_disk,
                                     handles_.base_log));
  LogShipperOptions so;
  so.fault_injector = handles_.faults;
  so.crash_switch = handles_.crash;
  shipper_ = std::make_unique<LogShipper>(handles_.wal, follower_.get(), so);
  ship_thread_ = std::thread(&PairReplicationObserver::ShipLoop, this);
  return Status::OK();
}

void PairReplicationObserver::ShipLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    StatusOr<uint64_t> shipped = shipper_->ShipOnce();
    if (!shipped.ok()) {
      if (follower_crash_ != nullptr && follower_crash_->crashed()) {
        // The follower died mid-apply: bring a new incarnation up from
        // the dead one's own crash artifacts and resume tailing.
        Status restarted = RestartFollower();
        if (!restarted.ok()) {
          MutexLock guard(mu_);
          if (background_status_.ok()) background_status_ = restarted;
          return;
        }
        continue;
      }
      if (handles_.crash != nullptr && handles_.crash->crashed()) {
        // The primary died; nothing more to ship until the failover
        // drain reads the surviving log device.
        return;
      }
      MutexLock guard(mu_);
      if (background_status_.ok()) background_status_ = shipped.status();
      return;
    }
    SleepFor(Micros(500));
  }
}

Status PairReplicationObserver::RestartFollower() {
  PageFileImage disk = follower_->DiskImage();
  std::string log = follower_->LogImage();
  // Fresh switch per incarnation (a triggered switch stays triggered);
  // the same injector carries on, so its one-shot kill stays consumed
  // and the decision sequence remains a pure function of the seed.
  follower_crash_ =
      std::make_unique<CrashSwitch>(seed_ + 0x52ULL + restarts_);
  XTC_ASSIGN_OR_RETURN(std::unique_ptr<Follower> reborn,
                       Follower::Bootstrap(MakeFollowerOptions(), disk, log));
  follower_ = std::move(reborn);
  shipper_->set_follower(follower_.get());
  ++restarts_;
  return Status::OK();
}

void PairReplicationObserver::OnPrimaryStopped(bool crashed) {
  (void)crashed;
  stop_.store(true, std::memory_order_relaxed);
  if (ship_thread_.joinable()) ship_thread_.join();
  Status drained = DrainAfterStop();
  if (!drained.ok()) {
    MutexLock guard(mu_);
    if (background_status_.ok()) background_status_ = drained;
  }
}

Status PairReplicationObserver::DrainAfterStop() {
  if (shipper_ == nullptr || follower_ == nullptr) return Status::OK();
  // The drain itself can still hit a pending follower kill (one-shot,
  // not yet consumed); restart and drain again.
  for (int attempt = 0; attempt < 3; ++attempt) {
    Status st = shipper_->Drain();
    if (st.ok()) return Status::OK();
    if (follower_crash_ != nullptr && follower_crash_->crashed()) {
      XTC_RETURN_IF_ERROR(RestartFollower().Annotate("drain restart"));
      continue;
    }
    return st.Annotate("failover drain");
  }
  return Status::Internal("failover drain did not converge in 3 attempts");
}

ReplicationStats PairReplicationObserver::Stats() const {
  // The shipper fills the shipping side, the follower the apply side and
  // the freshest watermarks.
  ReplicationStats out;
  if (shipper_ != nullptr) out = shipper_->stats();
  if (follower_ != nullptr) Overlay(&out, follower_->stats());
  out.follower_restarts = restarts_;
  out.enabled = true;
  return out;
}

Status PairReplicationObserver::background_status() const {
  MutexLock guard(mu_);
  return background_status_;
}

}  // namespace xtc
