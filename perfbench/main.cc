// End-to-end benchmark of the XTC stack (see perfbench/README.md).
//
//   xtcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Every workload runs taDOM3+ at isolation repeatable, lock depth 7, with
// the WAL attached and the background fuzzy checkpoint (FlushAll +
// LogCheckpoint every 64 commits) running, as closed-loop clients with
// zero think time. Transaction types follow the CLUSTER1 9:5:2:8 blend,
// drawn from the workload seed.
//
// --trace 0 measures the end-to-end metrics on an untraced stack.
// --trace 1 runs the same workload twice on fresh stacks, untraced and
// then with span decorators installed, and reports per-layer metrics
// from the traced run plus the tracing overhead between the two.
//
// Every run ends with a correctness gate; a failed check prints
// "correct": false and exits 1. The last line of stdout is one JSON
// object with every metric the run measured.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "net/client.h"
#include "net/server.h"
#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/bib_generator.h"
#include "tamix/dom_api.h"
#include "tamix/invariants.h"
#include "tamix/transactions.h"
#include "trace.h"
#include "tx/transaction_manager.h"
#include "util/clock.h"
#include "util/rng.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using xtc::Status;
using xtc::StatusOr;

constexpr std::string_view kProtocol = "taDOM3+";
constexpr xtc::IsolationLevel kIsolation = xtc::IsolationLevel::kRepeatable;
constexpr int kLockDepth = 7;
constexpr uint64_t kCheckpointEveryCommits = 64;
constexpr int kClients = 4;  // closed-loop clients, capped at nproc
// Set-up is timed in two blocks, before the load and after it, each
// repeating the set-up for at least this long and this often.
constexpr double kSetupBlockSeconds = 2.0;
constexpr int kSetupBlockMinReps = 3;
constexpr double kWarmupSeconds = 1.0;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool socket;               // clients reach the engine over loopback
  bool paper_doc;            // paper-sized bib (else the bench-sized one)
  uint32_t pool_frames;      // buffer pool size
  bool query_book_only;      // read-only TAqueryBook instead of CLUSTER1
  bool recover;              // each phase ends in a restart from its images
};

// Why these three (README.md, "Workloads"): the socket row is the headline
// and is dominated by the wire; the local row gives the engine all the
// work, with writes beside reads, and then runs restart recovery on what
// it wrote; the paper row is larger than its pool and read-only.
constexpr Workload kWorkloads[] = {
    {"cluster1_socket", true, false, 4096, false, false},
    {"cluster1_local", false, false, 4096, false, true},
    {"querybook_paper", false, true, 512, true, false},
};

/// CLUSTER1 keeps 9 TAqueryBook, 5 TAchapter, 2 TArenameTopic and 8
/// TAlendAndReturn per client active; a closed-loop client draws its next
/// transaction's type with those weights.
xtc::TxType DrawCluster1(xtc::Rng& rng) {
  const uint64_t r = rng.Uniform(24);
  if (r < 9) return xtc::TxType::kQueryBook;
  if (r < 14) return xtc::TxType::kChapter;
  if (r < 16) return xtc::TxType::kRenameTopic;
  return xtc::TxType::kLendAndReturn;
}

SpanKind BodySpan(xtc::TxType type) {
  switch (type) {
    case xtc::TxType::kChapter: return SpanKind::kBodyChapter;
    case xtc::TxType::kRenameTopic: return SpanKind::kBodyRenameTopic;
    case xtc::TxType::kLendAndReturn: return SpanKind::kBodyLendAndReturn;
    default: return SpanKind::kBodyQueryBook;
  }
}

/// Commit-record payload {u32 type, u64 body seed}: what the restart
/// check compares between acknowledged and recovered commits.
std::string CommitPayload(xtc::TxType type, uint64_t body_seed) {
  std::string payload(12, '\0');
  const uint32_t t = static_cast<uint32_t>(type);
  std::memcpy(payload.data(), &t, sizeof(t));
  std::memcpy(payload.data() + 4, &body_seed, sizeof(body_seed));
  return payload;
}

// --- Statistics --------------------------------------------------------------

/// Exact percentile of raw samples (linear interpolation between ranks).
double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Seconds(xtc::Duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Process CPU time (all threads, user + system), in milliseconds.
double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Host-wide CPU jiffies from /proc/stat: {steal, total}. Zero when the
/// file is unavailable (then the steal share reads 0).
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  if (in >> cpu && cpu == "cpu") {
    // user nice system idle iowait irq softirq steal (guest time is
    // already included in user/nice).
    for (int i = 0; i < 8; ++i) {
      uint64_t v = 0;
      if (!(in >> v)) break;
      total += v;
      if (i == 7) steal = v;
    }
  }
  return {steal, total};
}

/// Engine counters sampled at the window edges; deltas give the
/// per-layer counts of the window.
struct Counters {
  double cpu_ms = 0;
  std::pair<uint64_t, uint64_t> jiffies;
  xtc::LockTableStats lock;
  xtc::WalStats wal;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t eviction_writebacks = 0;
};

// --- The stack ---------------------------------------------------------------

/// One engine instance. Member order is destruction order reversed: the
/// server stops first, and the WAL outlives the document (eviction
/// write-backs consult its durable watermark).
struct Stack {
  std::unique_ptr<xtc::Wal> wal;
  std::unique_ptr<xtc::Document> doc;
  xtc::BibInfo info;
  std::unique_ptr<xtc::XmlProtocol> protocol;
  std::unique_ptr<TracedProtocol> traced_protocol;  // traced runs only
  std::unique_ptr<xtc::LockManager> locks;
  std::unique_ptr<xtc::TransactionManager> txm;
  std::unique_ptr<xtc::NodeManager> nm;
  std::unique_ptr<xtc::net::Server> server;  // socket workloads only

  xtc::LockTable& table() { return protocol->table(); }

  Counters Sample() const {
    Counters c;
    c.cpu_ms = CpuMs();
    c.jiffies = CpuJiffies();
    c.lock = protocol->table().GetStats();
    c.wal = wal->stats();
    c.buffer_hits = doc->buffer().hits();
    c.buffer_misses = doc->buffer().misses();
    c.eviction_writebacks = doc->buffer().io_stats().eviction_writebacks;
    return c;
  }
};

xtc::StorageOptions StorageFor(const Workload& w) {
  xtc::StorageOptions storage;
  storage.buffer_pool_pages = w.pool_frames;
  return storage;
}

/// Set-up as the benchmark times it: bib generation, WAL attach, base
/// checkpoint, the engine managers and (socket workloads) server start.
StatusOr<std::unique_ptr<Stack>> BuildStack(const Workload& w,
                                            Tracer* tracer) {
  auto s = std::make_unique<Stack>();
  s->doc = std::make_unique<xtc::Document>(StorageFor(w));
  auto info = xtc::GenerateBib(
      s->doc.get(),
      w.paper_doc ? xtc::BibConfig::Paper() : xtc::BibConfig::Bench());
  if (!info.ok()) return info.status();
  s->info = std::move(*info);
  s->wal = std::make_unique<xtc::Wal>();
  s->doc->AttachWal(s->wal.get());
  XTC_RETURN_IF_ERROR(s->doc->buffer().FlushAll());
  XTC_RETURN_IF_ERROR(s->doc->LogCheckpoint());
  s->protocol = xtc::CreateProtocol(kProtocol);
  if (s->protocol == nullptr) return Status::Internal("no taDOM3+ protocol");
  xtc::XmlProtocol* protocol = s->protocol.get();
  if (tracer != nullptr) {
    s->traced_protocol = std::make_unique<TracedProtocol>(protocol, tracer);
    protocol = s->traced_protocol.get();
  }
  s->locks = std::make_unique<xtc::LockManager>(protocol);
  s->txm = std::make_unique<xtc::TransactionManager>(s->locks.get(), nullptr,
                                                     s->wal.get());
  s->nm = std::make_unique<xtc::NodeManager>(s->doc.get(), s->locks.get());
  if (w.socket) {
    s->server = std::make_unique<xtc::net::Server>(
        xtc::net::Server::Deps{s->nm.get(), s->txm.get(), &s->table(),
                               &s->info, s->wal.get(), nullptr},
        xtc::net::ServerOptions{});
    XTC_RETURN_IF_ERROR(s->server->Start());
  }
  return s;
}

/// One block of timed set-ups: builds untraced stacks one after another
/// for at least kSetupBlockSeconds and kSetupBlockMinReps times, appends
/// each set-up time to `setup_s` and returns the last stack.
StatusOr<std::unique_ptr<Stack>> TimeSetUps(const Workload& w,
                                            std::vector<double>* setup_s) {
  std::unique_ptr<Stack> stack;
  const xtc::TimePoint block_start = xtc::Now();
  for (int i = 0; i < kSetupBlockMinReps ||
                  Seconds(xtc::Now() - block_start) < kSetupBlockSeconds;
       ++i) {
    stack.reset();
    const xtc::TimePoint start = xtc::Now();
    auto built = BuildStack(w, nullptr);
    if (!built.ok()) return built.status();
    setup_s->push_back(Seconds(xtc::Now() - start));
    stack = std::move(*built);
  }
  return stack;
}

// --- Closed-loop load ----------------------------------------------------------

/// Outcome counts of one phase, inside the window unless noted. A client
/// retries a failed transaction's work item (same type, same body seed)
/// up to kMaxRetries times, as the coordinator does. A failure is a
/// deadlock, lock timeout, admission reject or transport error, each
/// counted once; anything else a transaction returns fails the run.
constexpr int kMaxRetries = 4;

struct Tally {
  uint64_t items = 0;         // work items finished
  uint64_t items_failed = 0;  // ... that never committed
  uint64_t transactions = 0;  // transaction attempts finished
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t admission = 0;
  uint64_t transport = 0;
  uint64_t acked_total = 0;  // every acknowledged commit of the phase
  std::vector<int64_t> latency_ns;  // commits acknowledged in the window
  std::vector<xtc::TimePoint> ack_at;  // ... and when, in the same order
  std::vector<std::pair<uint64_t, std::string>> acked;  // (seq, payload)

  uint64_t aborted() const {
    return deadlocks + timeouts + admission + transport;
  }

  void Merge(Tally&& o) {
    items += o.items;
    items_failed += o.items_failed;
    transactions += o.transactions;
    deadlocks += o.deadlocks;
    timeouts += o.timeouts;
    admission += o.admission;
    transport += o.transport;
    acked_total += o.acked_total;
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    ack_at.insert(ack_at.end(), o.ack_at.begin(), o.ack_at.end());
    acked.insert(acked.end(), std::make_move_iterator(o.acked.begin()),
                 std::make_move_iterator(o.acked.end()));
  }
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

struct LoadContext {
  const Workload* w = nullptr;
  Stack* stack = nullptr;
  Tracer* tracer = nullptr;
  uint64_t seed = 0;
  std::atomic<int> phase{kWarmup};
  std::mutex error_mu;
  Status error;  // first error (guarded by error_mu)

  bool stopped() const {
    return phase.load(std::memory_order_relaxed) == kStop;
  }
  bool measuring() const {
    return phase.load(std::memory_order_relaxed) == kMeasure;
  }
  void Fail(const Status& st) {
    std::lock_guard<std::mutex> guard(error_mu);
    if (error.ok()) error = st;
    phase.store(kStop, std::memory_order_relaxed);
  }
};

/// Counts a failed transaction attempt; false when the status is not a
/// failure the workload may produce.
bool CountFailure(const Status& st, bool measuring, Tally* t) {
  uint64_t* counter = nullptr;
  switch (st.code()) {
    case xtc::StatusCode::kDeadlock: counter = &t->deadlocks; break;
    case xtc::StatusCode::kLockTimeout: counter = &t->timeouts; break;
    case xtc::StatusCode::kResourceExhausted: counter = &t->admission; break;
    case xtc::StatusCode::kIoError:
    case xtc::StatusCode::kTxAborted:
    case xtc::StatusCode::kUnknown: counter = &t->transport; break;
    default: return false;
  }
  if (measuring) {
    ++*counter;
    ++t->transactions;
  }
  return true;
}

/// One closed-loop client.
class LoadClient {
 public:
  LoadClient(LoadContext* ctx, int index)
      : ctx_(ctx),
        w_(*ctx->w),
        stack_(*ctx->stack),
        tracer_(ctx->tracer),
        index_(index),
        rng_(ctx->seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) +
             1),
        bodies_(&stack_.info, xtc::Duration::zero()),
        remote_(&client_) {}

  Tally Run() {
    while (!ctx_->stopped()) {
      const xtc::TxType type =
          w_.query_book_only ? xtc::TxType::kQueryBook : DrawCluster1(rng_);
      const uint64_t body_seed = rng_.Next();
      bool committed = false;
      for (int retry = 0; retry <= kMaxRetries && !committed; ++retry) {
        Status st = Attempt(type, body_seed, &committed);
        if (!st.ok()) {
          ctx_->Fail(st);
          return std::move(t_);
        }
      }
      if (ctx_->measuring()) {
        ++t_.items;
        if (!committed) ++t_.items_failed;
      }
    }
    if (client_.connected()) client_.Close();
    return std::move(t_);
  }

 private:
  /// Runs one transaction of the work item. Returns an error only for an
  /// outcome that is not a countable failure.
  Status Attempt(xtc::TxType type, uint64_t body_seed, bool* committed) {
    if (w_.socket && !client_.connected()) {
      XTC_RETURN_IF_ERROR(client_.Connect("127.0.0.1", stack_.server->port())
                              .Annotate("connect"));
    }
    // Client-side spans are keyed by (client, attempt); the engine's lock
    // spans carry its own transaction id and link here through parents.
    const uint64_t key = (static_cast<uint64_t>(index_ + 1) << 48) | ++attempts_;
    const xtc::TimePoint start = xtc::Now();
    ScopedSpan txn_span(tracer_, SpanKind::kTxn, key);
    std::unique_ptr<xtc::Transaction> tx;
    {
      ScopedSpan span(tracer_, SpanKind::kTxBegin, key);
      if (w_.socket) {
        auto begun = client_.Begin(kIsolation, kLockDepth, type);
        if (!begun.ok()) return Failed(begun.status(), "begin");
      } else {
        tx = stack_.txm->Begin(kIsolation, kLockDepth);
      }
    }
    std::optional<xtc::LocalDom> local;
    xtc::TaMixDom* dom = &remote_;
    if (!w_.socket) dom = &local.emplace(stack_.nm.get(), tx.get());
    std::optional<TracedDom> traced;
    if (tracer_ != nullptr) dom = &traced.emplace(dom, tracer_, key);
    xtc::Rng body_rng(body_seed);
    Status body;
    {
      ScopedSpan span(tracer_, BodySpan(type), key);
      body = bodies_.RunBody(type, *dom, body_rng);
    }
    if (!body.ok()) {
      ScopedSpan span(tracer_, SpanKind::kTxAbort, key);
      Status aborted = w_.socket ? client_.Abort() : stack_.txm->Abort(*tx);
      // Over the wire an abort after a transport error finds no session.
      if (!aborted.ok() && !(w_.socket && !client_.connected())) {
        return aborted.Annotate("abort");
      }
      return Failed(body, "body");
    }
    const std::string payload = CommitPayload(type, body_seed);
    uint64_t seq = 0;
    {
      ScopedSpan span(tracer_, SpanKind::kTxCommit, key);
      if (w_.socket) {
        auto done = client_.Commit(payload);
        if (!done.ok()) return Failed(done.status(), "commit");
        seq = *done;
      } else {
        XTC_RETURN_IF_ERROR(stack_.txm->Commit(*tx, payload).Annotate("commit"));
        seq = tx->commit_seq();
      }
    }
    *committed = true;
    ++t_.acked_total;
    t_.acked.emplace_back(seq, payload);
    if (ctx_->measuring()) {
      ++t_.transactions;
      const xtc::TimePoint now = xtc::Now();
      t_.latency_ns.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
              .count());
      t_.ack_at.push_back(now);
    }
    return Status::OK();
  }

  Status Failed(const Status& st, const char* where) {
    if (CountFailure(st, ctx_->measuring(), &t_)) return Status::OK();
    return st.Annotate(where);
  }

  LoadContext* ctx_;
  const Workload& w_;
  Stack& stack_;
  Tracer* tracer_;
  const int index_;
  xtc::Rng rng_;
  xtc::TaMixBodyRunner bodies_;
  xtc::net::Client client_;
  xtc::net::RemoteDom remote_;
  uint64_t attempts_ = 0;
  Tally t_;
};

/// Background fuzzy checkpoint, as the coordinator runs it: every 64
/// commits, write back what is flushable and log a checkpoint.
void CheckpointLoop(LoadContext* ctx) {
  Stack& stack = *ctx->stack;
  uint64_t last = stack.txm->num_committed();
  while (ctx->phase.load(std::memory_order_relaxed) != kStop) {
    const uint64_t committed = stack.txm->num_committed();
    if (committed - last >= kCheckpointEveryCommits) {
      ScopedSpan span(ctx->tracer, SpanKind::kCheckpoint, 0);
      Status flushed = stack.doc->buffer().FlushAll();
      Status logged = stack.doc->LogCheckpoint();
      if (!flushed.ok() || !logged.ok()) {
        ctx->Fail((flushed.ok() ? logged : flushed).Annotate("checkpoint"));
        return;
      }
      last = committed;
    }
    xtc::SleepFor(xtc::Millis(2));
  }
}

/// What one load phase measured.
constexpr size_t kSlices = 10;

struct PhaseResult {
  Tally tally;
  xtc::TimePoint window_start;
  double window_s = 0;
  uint64_t window_commits = 0;
  Counters before;
  Counters after;
  xtc::net::ServerStats server;
  std::vector<std::string> errors;  // correctness-gate violations

  double commits_per_s() const {
    return Ratio(static_cast<double>(window_commits), window_s);
  }

  /// Latency percentile over every commit of the window, in ms.
  double latency_ms(double q) const {
    return Percentile(tally.latency_ns, q) / 1e6;
  }

  /// The commit rate of each of kSlices equal slices of the window, by
  /// acknowledgement time: shows a stall or a steal episode inside a run.
  std::vector<double> SliceRates() const {
    std::vector<double> rates(kSlices);
    const double slice_s = window_s / kSlices;
    for (const xtc::TimePoint& at : tally.ack_at) {
      const size_t k = std::min(
          kSlices - 1, static_cast<size_t>(Seconds(at - window_start) / slice_s));
      rates[k] += 1.0 / slice_s;
    }
    return rates;
  }
};

/// Correctness gate of a finished phase (workers joined, server stopped).
void CheckPhase(const Workload& w, Stack& stack, uint64_t committed_before,
                PhaseResult* r) {
  auto check = [r](bool ok, const std::string& what) {
    if (!ok) r->errors.push_back(what);
  };
  const size_t locked = stack.table().NumLockedResources();
  check(locked == 0,
        "lock table holds " + std::to_string(locked) + " locked resources");
  const size_t waiting = stack.table().NumWaitingTransactions();
  check(waiting == 0,
        "wait-for graph tracks " + std::to_string(waiting) + " transactions");
  const size_t pinned = stack.doc->buffer().PinnedFrames();
  check(pinned == 0, std::to_string(pinned) + " buffer frames pinned");
  const size_t in_io = stack.doc->buffer().FramesInIo();
  check(in_io == 0, std::to_string(in_io) + " buffer frames mid-I/O");
  const uint64_t engine_commits =
      stack.txm->num_committed() - committed_before;
  check(engine_commits == r->tally.acked_total,
        "clients acknowledged " + std::to_string(r->tally.acked_total) +
            " commits, the transaction manager counted " +
            std::to_string(engine_commits));
  check(stack.txm->num_active() == 0,
        std::to_string(stack.txm->num_active()) +
            " transactions still active after the drain");
  if (w.socket) {
    check(r->server.protocol_errors == 0,
          std::to_string(r->server.protocol_errors) + " protocol errors");
  }
  // The structural audit is quadratic in the element count (it lists an
  // element's whole name class per element); it runs only on the
  // bench-sized document. A recovering workload is audited after the
  // restart instead: OpenDatabase ends in Validate, and the recovered
  // document must equal this one.
  if (!w.paper_doc && !w.recover) {
    Status valid = stack.doc->Validate();
    check(valid.ok(), "document audit: " + valid.ToString());
  }
}

/// Runs one closed-loop phase on `stack`: warm-up, a window of `seconds`,
/// drain, gate.
PhaseResult RunPhase(const Workload& w, Stack& stack, Tracer* tracer,
                     uint64_t seed, double seconds) {
  PhaseResult r;
  LoadContext ctx;
  ctx.w = &w;
  ctx.stack = &stack;
  ctx.tracer = tracer;
  ctx.seed = seed;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int clients = std::min(kClients, nproc);
  const uint64_t committed_before = stack.txm->num_committed();
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  std::thread checkpointer(CheckpointLoop, &ctx);
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&ctx, &tallies, i] {
      tallies[static_cast<size_t>(i)] = LoadClient(&ctx, i).Run();
    });
  }
  xtc::SleepFor(std::chrono::duration_cast<xtc::Duration>(
      std::chrono::duration<double>(kWarmupSeconds)));
  r.before = stack.Sample();
  r.window_start = xtc::Now();
  ctx.phase.store(kMeasure);
  const xtc::TimePoint deadline =
      r.window_start + std::chrono::duration_cast<xtc::Duration>(
                           std::chrono::duration<double>(seconds));
  while (xtc::Now() < deadline && ctx.measuring()) {
    xtc::SleepFor(std::min<xtc::Duration>(xtc::Millis(5),
                                          deadline - xtc::Now()));
  }
  ctx.phase.store(kStop);
  r.window_s = Seconds(xtc::Now() - r.window_start);
  r.after = stack.Sample();
  for (auto& t : threads) t.join();
  checkpointer.join();
  if (stack.server != nullptr) {
    stack.server->Stop();
    r.server = stack.server->stats();
  }
  for (Tally& t : tallies) r.tally.Merge(std::move(t));
  r.window_commits = r.tally.latency_ns.size();
  {
    std::lock_guard<std::mutex> guard(ctx.error_mu);
    if (!ctx.error.ok()) r.errors.push_back(ctx.error.ToString());
  }
  CheckPhase(w, stack, committed_before, &r);
  return r;
}

// --- Restart -------------------------------------------------------------------

struct RestartResult {
  double open_s = 0;
  xtc::RecoveryStats stats;
  double scan_ms = 0;
  double audit_ms = 0;
};

/// Recovers from the crash images of `stack`: the page file's stored bytes
/// and the durable log, with no final flush. The recovered database must
/// hold exactly the acknowledged commits and the same document. Traced,
/// the log scan and the structural audit that OpenDatabase runs inside
/// are also timed on their own.
RestartResult Restart(const Workload& w, Stack& stack, const Tally& tally,
                      Tracer* tracer, std::vector<std::string>* errors) {
  RestartResult r;
  const xtc::PageFileImage disk = stack.doc->page_file().CloneImage();
  const std::string log = stack.wal->DurableImage();
  auto live = xtc::DocumentFingerprint(*stack.doc);
  if (!live.ok()) {
    errors->push_back("fingerprint: " + live.status().ToString());
    return r;
  }
  xtc::TimePoint t0 = xtc::Now();
  StatusOr<xtc::OpenResult> opened = [&] {
    ScopedSpan span(tracer, SpanKind::kRecoveryOpen, 0);
    return xtc::OpenDatabase(StorageFor(w), xtc::WalOptions{}, disk, log);
  }();
  r.open_s = Seconds(xtc::Now() - t0);
  if (!opened.ok()) {
    errors->push_back("restart: " + opened.status().ToString());
    return r;
  }
  r.stats = opened->stats;
  std::vector<std::pair<uint64_t, std::string>> acked = tally.acked;
  std::vector<std::pair<uint64_t, std::string>> recovered;
  for (const xtc::RecoveredCommit& c : opened->committed) {
    recovered.emplace_back(c.seq, c.payload);
  }
  std::sort(acked.begin(), acked.end());
  std::sort(recovered.begin(), recovered.end());
  if (recovered != acked) {
    errors->push_back("restart recovered " + std::to_string(recovered.size()) +
                      " commits, clients acknowledged " +
                      std::to_string(acked.size()) + " (sets differ)");
  }
  auto fingerprint = xtc::DocumentFingerprint(*opened->doc);
  if (!fingerprint.ok() || *fingerprint != *live) {
    errors->push_back("recovered document differs from the live one");
  }
  if (tracer != nullptr) {
    t0 = xtc::Now();
    {
      ScopedSpan span(tracer, SpanKind::kRecoveryScan, 0);
      bool torn = false;
      auto records = xtc::Wal::ScanDurable(log, &torn);
      if (!records.ok()) {
        errors->push_back("scan: " + records.status().ToString());
      }
    }
    r.scan_ms = Seconds(xtc::Now() - t0) * 1e3;
    t0 = xtc::Now();
    {
      ScopedSpan span(tracer, SpanKind::kRecoveryAudit, 0);
      Status valid = opened->doc->Validate();
      if (!valid.ok()) errors->push_back("audit: " + valid.ToString());
    }
    r.audit_ms = Seconds(xtc::Now() - t0) * 1e3;
  }
  return r;
}

// --- Reporting -----------------------------------------------------------------

/// Metrics in report order: name -> (value, unit).
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(),
                  std::isfinite(e.value) ? e.value : 0.0, e.unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double AbortShare(const Tally& t) {
  return Ratio(static_cast<double>(t.aborted()),
               static_cast<double>(t.transactions));
}

void PrintSummary(const char* label, const PhaseResult& r) {
  const Tally& t = r.tally;
  std::printf("%s: window slices, commits/s:", label);
  for (double rate : r.SliceRates()) std::printf(" %.0f", rate);
  std::printf("\n");
  std::printf(
      "%s: %.1f commits/s over %.2f s | commit latency p50 %.3f ms, p95 "
      "%.3f ms, p99 %.3f ms (%zu samples) | %llu transactions, %llu aborted "
      "(deadlock %llu, timeout %llu, admission %llu, transport %llu), "
      "abort_share %.5f | %llu work items, %llu never committed\n",
      label, r.commits_per_s(), r.window_s, r.latency_ms(0.50),
      r.latency_ms(0.95), r.latency_ms(0.99), t.latency_ns.size(),
      static_cast<unsigned long long>(t.transactions),
      static_cast<unsigned long long>(t.aborted()),
      static_cast<unsigned long long>(t.deadlocks),
      static_cast<unsigned long long>(t.timeouts),
      static_cast<unsigned long long>(t.admission),
      static_cast<unsigned long long>(t.transport), AbortShare(t),
      static_cast<unsigned long long>(t.items),
      static_cast<unsigned long long>(t.items_failed));
}

double StealShare(const PhaseResult& r) {
  return Ratio(static_cast<double>(r.after.jiffies.first -
                                   r.before.jiffies.first),
               static_cast<double>(r.after.jiffies.second -
                                   r.before.jiffies.second));
}

double CpuMsPerCommit(const PhaseResult& r) {
  return Ratio(r.after.cpu_ms - r.before.cpu_ms,
               static_cast<double>(r.window_commits));
}

/// Per-layer metrics of a traced phase (see the layer map in README.md).
void AddLayerMetrics(const Workload& w, const PhaseResult& traced,
                     const std::array<SpanStats, kNumSpanKinds>& spans,
                     double untraced_cps, Stack& stack,
                     const RestartResult& restart, Report* out) {
  // Counter deltas cover the window; spans cover the whole phase
  // (warm-up, window and the drain), so each is divided by the commits of
  // its own span of time.
  const double commits = static_cast<double>(traced.window_commits);
  const double phase_commits = static_cast<double>(traced.tally.acked_total);
  const auto& s = [&](SpanKind k) -> const SpanStats& {
    return spans[static_cast<size_t>(k)];
  };
  const auto us = [](double ns) { return ns / 1e3; };
  const Counters& a = traced.before;
  const Counters& b = traced.after;

  // net: client-side round trips (socket workloads only).
  std::vector<int64_t> rtt;
  uint64_t round_trips = 0;
  uint64_t dom_calls = 0;
  int64_t dom_total_ns = 0;
  int64_t dom_self_ns = 0;
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    if (!IsDomSpan(kind)) continue;
    dom_calls += spans[k].count;
    dom_total_ns += spans[k].total_ns;
    dom_self_ns += spans[k].self_ns;
  }
  if (w.socket) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      const SpanKind kind = static_cast<SpanKind>(k);
      if (IsDomSpan(kind) || kind == SpanKind::kTxBegin ||
          kind == SpanKind::kTxCommit || kind == SpanKind::kTxAbort) {
        rtt.insert(rtt.end(), spans[k].samples_ns.begin(),
                   spans[k].samples_ns.end());
        round_trips += spans[k].count;
      }
    }
  }
  out->Add("net.rtt_us_p50", us(Percentile(rtt, 0.50)), "us");
  out->Add("net.rtt_us_p95", us(Percentile(rtt, 0.95)), "us");
  out->Add("net.commit_rtt_us_p50",
           w.socket ? us(Percentile(s(SpanKind::kTxCommit).samples_ns, 0.5))
                    : 0.0,
           "us");
  out->Add("net.round_trips_per_commit",
           Ratio(static_cast<double>(round_trips), phase_commits), "1/commit");
  out->Add("net.admission_rejected",
           static_cast<double>(traced.server.admission_rejected), "count");
  out->Add("net.protocol_errors",
           static_cast<double>(traced.server.protocol_errors), "count");
  out->Add("net.sessions_opened",
           static_cast<double>(traced.server.sessions_opened), "count");

  // tamix: the bodies and the DOM calls they make.
  out->Add("tamix.dom_calls_per_commit",
           Ratio(static_cast<double>(dom_calls), phase_commits), "1/commit");
  const std::pair<const char*, SpanKind> bodies[] = {
      {"tamix.body_ms_p50.query_book", SpanKind::kBodyQueryBook},
      {"tamix.body_ms_p50.chapter", SpanKind::kBodyChapter},
      {"tamix.body_ms_p50.rename_topic", SpanKind::kBodyRenameTopic},
      {"tamix.body_ms_p50.lend_and_return", SpanKind::kBodyLendAndReturn},
  };
  for (const auto& [name, kind] : bodies) {
    out->Add(name, Percentile(s(kind).samples_ns, 0.5) / 1e6, "ms");
  }

  // node: in-process DOM operations (their lock calls are child spans).
  const std::pair<const char*, SpanKind> ops[] = {
      {"get_element_by_id", SpanKind::kDomGetElementById},
      {"get_attributes", SpanKind::kDomGetAttributes},
      {"get_first_child", SpanKind::kDomGetFirstChild},
      {"get_last_child", SpanKind::kDomGetLastChild},
      {"get_next_sibling", SpanKind::kDomGetNextSibling},
      {"get_text_content", SpanKind::kDomGetTextContent},
      {"get_child_nodes", SpanKind::kDomGetChildNodes},
      {"declare_update_intent", SpanKind::kDomDeclareUpdateIntent},
      {"update_text", SpanKind::kDomUpdateText},
      {"set_attribute", SpanKind::kDomSetAttribute},
      {"append_subtree", SpanKind::kDomAppendSubtree},
      {"delete_subtree", SpanKind::kDomDeleteSubtree},
      {"rename", SpanKind::kDomRename},
  };
  for (const auto& [name, kind] : ops) {
    const SpanStats& op = s(kind);
    out->Add(std::string("node.op_us_mean.") + name,
             w.socket ? 0.0
                      : us(Ratio(static_cast<double>(op.total_ns),
                                 static_cast<double>(op.count))),
             "us");
  }
  out->Add("node.self_us_per_commit",
           w.socket ? 0.0
                    : us(Ratio(static_cast<double>(dom_self_ns), phase_commits)),
           "us/commit");

  // lock: meta-lock calls through the protocol, and lock-table counters.
  uint64_t lock_calls = 0;
  int64_t lock_ns = 0;
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    if (!IsLockSpan(static_cast<SpanKind>(k))) continue;
    lock_calls += spans[k].count;
    lock_ns += spans[k].total_ns;
  }
  out->Add("lock.calls_per_commit",
           Ratio(static_cast<double>(lock_calls), phase_commits), "1/commit");
  out->Add("lock.call_us_mean",
           us(Ratio(static_cast<double>(lock_ns),
                    static_cast<double>(lock_calls))),
           "us");
  out->Add("lock.us_per_commit",
           us(Ratio(static_cast<double>(lock_ns), phase_commits)), "us/commit");
  out->Add("lock.waits_per_commit",
           Ratio(static_cast<double>(b.lock.waits - a.lock.waits), commits),
           "1/commit");
  out->Add("lock.conversions_per_commit",
           Ratio(static_cast<double>(b.lock.conversions - a.lock.conversions),
                 commits),
           "1/commit");
  out->Add("lock.deadlocks",
           static_cast<double>(b.lock.deadlocks - a.lock.deadlocks), "count");
  out->Add("lock.timeouts",
           static_cast<double>(b.lock.timeouts - a.lock.timeouts), "count");
  const double cache_hits =
      static_cast<double>(b.lock.cache_hits - a.lock.cache_hits);
  const double cache_misses =
      static_cast<double>(b.lock.cache_misses - a.lock.cache_misses);
  out->Add("lock.cache_hit_rate", Ratio(cache_hits, cache_hits + cache_misses),
           "ratio");

  // tx: in-process commit and abort calls.
  out->Add("tx.commit_us_p50",
           w.socket ? 0.0 : us(Percentile(s(SpanKind::kTxCommit).samples_ns, 0.5)),
           "us");
  out->Add("tx.abort_us_p50",
           w.socket ? 0.0 : us(Percentile(s(SpanKind::kTxAbort).samples_ns, 0.5)),
           "us");

  // wal
  out->Add("wal.bytes_per_commit",
           Ratio(static_cast<double>(b.wal.bytes_appended - a.wal.bytes_appended),
                 commits),
           "B/commit");
  out->Add("wal.records_per_commit",
           Ratio(static_cast<double>(b.wal.records_appended -
                                     a.wal.records_appended),
                 commits),
           "1/commit");
  out->Add("wal.syncs_per_commit",
           Ratio(static_cast<double>(b.wal.syncs - a.wal.syncs), commits),
           "1/commit");
  out->Add("wal.checkpoints",
           static_cast<double>(b.wal.checkpoints_taken - a.wal.checkpoints_taken),
           "count");
  out->Add("wal.checkpoint_ms_p50",
           Percentile(s(SpanKind::kCheckpoint).samples_ns, 0.5) / 1e6, "ms");

  // storage
  const double hits = static_cast<double>(b.buffer_hits - a.buffer_hits);
  const double misses = static_cast<double>(b.buffer_misses - a.buffer_misses);
  out->Add("storage.buffer_hit_rate", Ratio(hits, hits + misses), "ratio");
  out->Add("storage.buffer_misses_per_commit", Ratio(misses, commits),
           "1/commit");
  out->Add("storage.eviction_writebacks",
           static_cast<double>(b.eviction_writebacks - a.eviction_writebacks),
           "count");
  out->Add("storage.doc_pages",
           static_cast<double>(stack.doc->page_file().num_pages()), "count");

  // recovery (recovering workloads only)
  out->Add("recovery.scan_ms", restart.scan_ms, "ms");
  out->Add("recovery.audit_ms", restart.audit_ms, "ms");
  out->Add("recovery.records_scanned",
           static_cast<double>(restart.stats.records_scanned), "count");
  out->Add("recovery.records_redone",
           static_cast<double>(restart.stats.records_redone), "count");
  out->Add("recovery.pages_redone",
           static_cast<double>(restart.stats.pages_redone), "count");
  out->Add("recovery.losers_undone",
           static_cast<double>(restart.stats.losers_undone), "count");
  out->Add("restart_s", restart.open_s, "s");

  // The run as a whole: outcome, attribution and overhead of the trace.
  out->Add("abort_share", AbortShare(traced.tally), "ratio");
  const double attributed = static_cast<double>(
      dom_total_ns + s(SpanKind::kTxBegin).total_ns +
      s(SpanKind::kTxCommit).total_ns + s(SpanKind::kTxAbort).total_ns);
  out->Add("trace.attributed_share",
           Ratio(attributed, static_cast<double>(s(SpanKind::kTxn).total_ns)),
           "ratio");
  out->Add("trace.overhead_share",
           1.0 - Ratio(traced.commits_per_s(), untraced_cps), "ratio");
  out->Add("sandbox.steal_share", StealShare(traced), "ratio");
  out->Add("sandbox.cpu_ms_per_commit", CpuMsPerCommit(traced), "ms/commit");
}

// --- Main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "xtcbench: %s\n", what.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: xtcbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>]");
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return Fail("unknown workload " + args.workload);
  std::printf("workload %s, seed %llu, %.0f s, trace %d, %s, nproc %u\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, std::string(kProtocol).c_str(),
              std::thread::hardware_concurrency());

  std::vector<std::string> errors;
  std::vector<double> setup_before;  // set-up times before the load
  // The read-only workload must leave the document exactly as generated.
  std::optional<uint64_t> fingerprint;
  const auto check_unchanged = [&](Stack& s) {
    if (!w->paper_doc) return;
    auto fp = xtc::DocumentFingerprint(*s.doc);
    if (!fp.ok() || (fingerprint && *fp != *fingerprint)) {
      errors.push_back("read-only workload changed the document");
    }
    if (fp.ok()) fingerprint = *fp;
  };
  // One phase on a fresh stack: set-up, load, gate, and on a recovering
  // workload the restart.
  const auto run = [&](Tracer* tracer, double seconds, RestartResult* restart)
      -> StatusOr<std::pair<PhaseResult, std::unique_ptr<Stack>>> {
    auto stack = tracer == nullptr ? TimeSetUps(*w, &setup_before)
                                   : BuildStack(*w, tracer);
    if (!stack.ok()) return stack.status();
    check_unchanged(**stack);
    PhaseResult phase = RunPhase(*w, **stack, tracer, args.seed, seconds);
    errors.insert(errors.end(), phase.errors.begin(), phase.errors.end());
    check_unchanged(**stack);
    PrintSummary(tracer == nullptr ? "untraced" : "traced", phase);
    if (w->recover) {
      *restart = Restart(*w, **stack, phase.tally, tracer, &errors);
      std::printf("restart: OpenDatabase %.3f s\n", restart->open_s);
    }
    return std::make_pair(std::move(phase), std::move(*stack));
  };

  // The untraced run gives the end-to-end numbers; with --trace 1 it is the
  // baseline of the tracing overhead and the window is split between the
  // two runs.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  RestartResult restart;
  auto untraced = run(nullptr, seconds, &restart);
  if (!untraced.ok()) return Fail("set-up: " + untraced.status().ToString());
  const PhaseResult& base = untraced->first;
  untraced->second.reset();
  std::printf("steal_share %.4f, cpu_ms_per_commit %.4f\n", StealShare(base),
              CpuMsPerCommit(base));

  Report report;
  uint64_t items = base.tally.items;
  uint64_t items_failed = base.tally.items_failed;
  if (!args.trace) {
    // The second set-up block runs after the load, so the two blocks
    // sample the host some 20 s apart: its speed for memory-heavy work
    // such as bib generation swings by up to 1.6x for seconds at a time.
    std::vector<double> setup_after;
    auto again = TimeSetUps(*w, &setup_after);
    if (!again.ok()) return Fail("set-up: " + again.status().ToString());
    again->reset();
    std::vector<double> setups = setup_before;
    setups.insert(setups.end(), setup_after.begin(), setup_after.end());
    std::printf(
        "setup_s: median %.4f of %zu set-ups | before the load %zu, median "
        "%.4f | after it %zu, median %.4f\n",
        Median(setups), setups.size(), setup_before.size(),
        Median(setup_before), setup_after.size(), Median(setup_after));
    report.Add("commits_per_s", base.commits_per_s(), "1/s");
    report.Add("commit_p50_ms", base.latency_ms(0.50), "ms");
    report.Add("setup_s", Median(setups), "s");
  } else {
    Tracer tracer(/*keep_per_thread=*/20000);
    auto traced = run(&tracer, seconds, &restart);
    if (!traced.ok()) return Fail("set-up: " + traced.status().ToString());
    report.Add("commit_p95_ms", base.latency_ms(0.95), "ms");
    AddLayerMetrics(*w, traced->first, tracer.Totals(), base.commits_per_s(),
                    *traced->second, restart, &report);
    traced->second.reset();
    if (!args.trace_out.empty() && !tracer.WriteSpans(args.trace_out)) {
      errors.push_back("cannot write " + args.trace_out);
    }
    items = traced->first.tally.items;
    items_failed = traced->first.tally.items_failed;
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  report.Print(errors.empty(), items, items_failed);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
