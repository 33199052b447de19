// Socket front-end of the XDBMS (DESIGN.md §8): a bounded worker pool
// that multiplexes many client connections onto the existing
// TransactionManager/LockManager/Document stack, plus one event-loop
// thread for accept and housekeeping. The paper ran TaMix from remote
// client machines against the XTC server; this is that boundary, over
// loopback or a real NIC.
//
// Threading model
//   * N worker threads read, execute and answer their own sessions. Every
//     session fd sits in one shared worker epoll set, registered
//     EPOLLIN | EPOLLONESHOT and keyed by session id, so the kernel hands
//     a readable session to exactly one worker. That worker reads,
//     extracts frames, executes them in order, writes each response, and
//     re-arms the fd. The one-shot arming is the "at most one worker per
//     session" guarantee: requests of one connection execute in order and
//     the transaction state needs no lock of its own. A round trip wakes
//     two threads, the worker and the client.
//   * One event-loop thread owns the listener and the per-tick
//     housekeeping: idle reaping, lease expiry and closing retired fds.
//     It also watches every session fd edge-triggered for a hangup
//     (EPOLLRDHUP | EPOLLET): an RST or HUP closes the session even while
//     its worker is parked in LockTable::Lock(). It never executes a
//     request and never blocks on a lock.
//   * Stop() wakes every worker through an eventfd in the worker set that
//     is never drained.
//
// Admission control
//   * max_sessions: connections beyond it are accepted and immediately
//     closed (the cheapest honest signal).
//   * max_in_flight_tx: kBegin beyond it is answered kResourceExhausted
//     — the client backs off; nothing queues.
//   * max_queue_depth: frames extracted but not yet executed (global,
//     across sessions); frames beyond it are answered kResourceExhausted
//     without executing.
//   * request_deadline: a frame that waited longer than this between its
//     extraction and its turn is answered kResourceExhausted without
//     executing (stale work is not worth doing — the client has long
//     since timed out).
//
// Shutdown
//   * Reset / hangup / idle reap: the session's transaction — even one
//     parked inside LockTable::Lock() — is cancelled (LockTable::CancelTx
//     wakes it with kCancelled), aborted, and its locks released.
//   * Orderly EOF (the peer closed or half-closed): the worker executes
//     every frame that arrived before it, then closes the session.
//   * Drain()/Stop(): stop accepting, give in-flight transactions
//     drain_timeout to finish, cancel + abort the stragglers, flush the
//     WAL, join all threads. Never leaves a transaction active.
//
// Session leases (session_lease > 0)
//   * Disconnect no longer aborts immediately: the session's resumable
//     state (its SessionCore — token, open transaction, recorded request
//     outcomes) is parked for up to session_lease. A client that
//     reconnects and presents the token (kResume) adopts the core and
//     continues the transaction; a lease that expires falls through to
//     the ordinary abort path. CancelTx is sticky until ReleaseAll, so
//     with leases on, disconnect does NOT cancel the transaction's lock
//     waits — an in-flight operation finishes on its own and the owning
//     worker parks the session afterwards. Drain/Stop still cancel.
//   * Exactly-once commits: each session records the full response
//     payload of its recent transaction-scoped requests in a bounded
//     ring *before* the response bytes are written. A retried request_id
//     (the client resent after a torn response) is answered from the
//     table without re-executing — a commit is never applied twice.

#ifndef XTC_NET_SERVER_H_
#define XTC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/net_stats.h"
#include "net/wire.h"
#include "node/node_manager.h"
#include "tamix/bib_generator.h"
#include "tamix/metrics.h"
#include "tx/transaction_manager.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/wal.h"

namespace xtc {
namespace net {

struct ServerOptions {
  /// 0 = kernel-assigned ephemeral port (read back via port()).
  uint16_t port = 0;
  int num_workers = 4;
  size_t max_sessions = 256;
  size_t max_in_flight_tx = 64;
  size_t max_queue_depth = 256;
  /// Per-session cap on frames extracted but not yet executed. A
  /// synchronous request–response client never has more than 1; a client
  /// that pipelines past this is violating the protocol and is
  /// disconnected.
  size_t max_session_pending = 64;
  Duration request_deadline = std::chrono::seconds(10);
  Duration idle_timeout = std::chrono::seconds(60);
  Duration drain_timeout = std::chrono::seconds(5);
  /// How long a disconnected session's state (open transaction, recorded
  /// request outcomes) survives awaiting a kResume. Zero = disconnect
  /// aborts immediately (the pre-lease behavior).
  Duration session_lease = Duration::zero();
  /// Recent response payloads remembered per session for retried
  /// request_ids (exactly-once commit resolution). 0 disables the table;
  /// a synchronous client only ever retries its newest request, so a
  /// handful of entries is plenty.
  size_t outcome_table_entries = 8;
  /// Responses larger than this are not recorded (big reads are
  /// idempotent; re-executing them on retry is cheaper than the memory).
  size_t outcome_record_max_bytes = 4096;
};

class Server {
 public:
  /// Borrowed engine handles; all must outlive the server. `wal` may be
  /// null (drain then skips the flush), `info` feeds kWorkloadInfo.
  struct Deps {
    NodeManager* nm = nullptr;
    TransactionManager* txm = nullptr;
    LockTable* table = nullptr;
    const BibInfo* info = nullptr;
    Wal* wal = nullptr;
    /// Optional: evaluated at the net.* fault points (chaos runs).
    FaultInjector* faults = nullptr;
  };

  Server(Deps deps, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, starts the event loop and workers.
  Status Start();
  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, let in-flight transactions finish
  /// for up to drain_timeout, cancel + abort stragglers, flush the WAL.
  /// Idempotent; Stop() implies it.
  void Drain();
  /// Drain, then shut all threads down and close every socket.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  ServerStats stats() const;
  /// Everything the server can see: its per-type workload metrics, the
  /// lock table, the document's buffer pool, the WAL (zero without one)
  /// and stats(). The kStats request ships its Snapshot().
  RunStats run_stats() const;

 private:
  struct Frame {
    uint8_t type = 0;
    uint32_t request_id = 0;
    std::string payload;
    /// request_deadline is measured from here.
    TimePoint extracted;
    /// Set at extraction: answer kResourceExhausted, do not execute.
    bool overloaded = false;
    /// Set at extraction on framing/decode errors: answer with this
    /// status, then disconnect.
    Status reject;
  };

  /// One recorded response (exactly-once retry resolution).
  struct OutcomeEntry {
    uint32_t request_id = 0;
    uint8_t type = 0;
    std::string payload;  // the full response payload, status included
  };

  /// The resumable half of a session: everything that survives the TCP
  /// connection under a lease. Touched only by the worker currently
  /// owning the session (the one-shot arming and the busy flag serialize
  /// workers) or, once parked, by whoever removed it from parked_ — never
  /// both.
  struct SessionCore {
    /// Resume token handed out in the kHello response; 0 = none issued.
    uint64_t token_id = 0;
    uint64_t token_secret = 0;
    std::unique_ptr<Transaction> tx;
    TxType tx_type = TxType::kQueryBook;
    TimePoint tx_begin;
    Status last_error;  // last failed op (classifies the abort)
    /// Ring of recent response payloads, newest at the back.
    std::deque<OutcomeEntry> outcomes;
  };

  struct Session {
    int fd = -1;
    uint64_t id = 0;
    std::string rbuf;  // unparsed inbound bytes (owning worker only)
    /// Last read; written by the owning worker, read by the reaper.
    std::atomic<TimePoint> last_activity;
    Mutex mu;
    /// A worker owns the session: between taking its readiness event and
    /// re-arming the fd. Teardown is then that worker's job.
    bool busy XTC_GUARDED_BY(mu) = false;
    bool closing XTC_GUARDED_BY(mu) = false;
    /// Resumable state; owned by the worker that owns the session, so
    /// unguarded.
    std::unique_ptr<SessionCore> core = std::make_unique<SessionCore>();
    /// Mirror of core->tx->id() for the event loop's CancelTx on
    /// disconnect (only consulted when leases are off or draining).
    std::atomic<uint64_t> tx_id{0};
  };
  using SessionPtr = std::shared_ptr<Session>;

  /// A SessionCore waiting out its lease between disconnect and resume.
  struct ParkedCore {
    std::unique_ptr<SessionCore> core;
    TimePoint expiry;
  };

  void EventLoop();
  void WorkerLoop();

  void AcceptPending();
  SessionPtr FindSession(uint64_t id) const;
  /// The owning worker's turn: reads, executes the extracted frames in
  /// order, then re-arms the fd or tears the session down.
  void ServeSession(const SessionPtr& s);
  /// Reads what is available and extracts every complete frame into
  /// *frames, stamped and admission-checked. Returns false when the
  /// stream ended (EOF, error, corrupt header); the frames extracted
  /// before the end still execute.
  bool ReadSession(const SessionPtr& s, std::vector<Frame>* frames);
  bool Closing(Session* s) const;
  /// Marks the session closing, cancels its transaction's lock waits, and
  /// tears it down right away unless a worker owns it (then that worker
  /// finishes and tears it down).
  void BeginClose(const SessionPtr& s);
  void Teardown(const SessionPtr& s);
  void ReapIdle();

  /// Executes one frame and sends the response. Returns false when the
  /// session must close (protocol error frames).
  bool Process(const SessionPtr& s, Frame& frame);
  std::string HandleRequest(const SessionPtr& s, const Frame& frame,
                            bool* close_after);
  // Request handlers (payload already CRC-checked). An empty return means
  // the request payload was malformed (HandleRequest turns that into an
  // error response + disconnect).
  std::string HandleBegin(const SessionPtr& s, WireReader& r);
  std::string HandleCommit(const SessionPtr& s, WireReader& r);
  std::string HandleAbort(const SessionPtr& s);
  std::string HandleResume(const SessionPtr& s, WireReader& r);
  std::string HandleDomOp(const SessionPtr& s, const Frame& frame,
                          WireReader& r);
  std::string HandleStats();
  std::string HandleWorkloadInfo();

  /// Whether frames of this type participate in the outcome table.
  static bool IsTxScoped(uint8_t type) {
    return type >= static_cast<uint8_t>(MsgType::kBegin) &&
           type <= static_cast<uint8_t>(MsgType::kRename);
  }
  bool DedupLookup(const SessionCore& core, uint32_t request_id, uint8_t type,
                   std::string* payload) const;
  void DedupRecord(SessionCore* core, uint32_t request_id, uint8_t type,
                   const std::string& payload);

  /// Whether a disconnected session keeps its state for a resume.
  bool LeasesActive() const {
    return options_.session_lease > Duration::zero() &&
           !draining_.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire);
  }
  /// Teardown half: parks the core under an active lease (state worth
  /// keeping), otherwise aborts the transaction.
  void ParkOrAbort(Session* s);
  /// Removes + returns the parked core for the token, nullptr otherwise.
  /// *mismatch distinguishes "wrong secret" from "not parked".
  std::unique_ptr<SessionCore> TakeParked(uint64_t token_id, uint64_t secret,
                                          bool* mismatch);
  /// Event-loop tick: aborts parked cores whose lease ran out.
  void ExpireLeases();
  /// Drain/Stop: aborts every parked core immediately.
  void AbortAllParked();

  /// Aborts a core's transaction (if any) and records the abort.
  void AbortCore(SessionCore* core);
  /// AbortCore + clears the session's tx_id mirror.
  void AbortSessionTx(Session* s);
  bool SendAll(const SessionPtr& s, std::string_view bytes);
  /// Closes fds retired by Teardown (event loop / post-join only; see the
  /// comment in Teardown for why nobody else closes them).
  void CloseDeadFds();

  Deps deps_;
  ServerOptions options_;
  MetricsCollector metrics_;

  int listen_fd_ = -1;
  /// Written once by Stop() and never drained: wakes every worker (and
  /// the loop) for good.
  int stop_fd_ = -1;
  /// The loop's set: listener, stop_fd_, session hangups.
  int loop_epoll_fd_ = -1;
  /// The workers' set: one-shot session readiness, stop_fd_.
  int work_epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> accepting_{true};

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  mutable Mutex sessions_mu_;
  /// By session id (the epoll key).
  std::unordered_map<uint64_t, SessionPtr> sessions_
      XTC_GUARDED_BY(sessions_mu_);
  uint64_t next_session_id_ XTC_GUARDED_BY(sessions_mu_) = 1;

  mutable Mutex parked_mu_;
  std::unordered_map<uint64_t, ParkedCore> parked_ XTC_GUARDED_BY(parked_mu_);
  uint64_t next_token_nonce_ XTC_GUARDED_BY(parked_mu_) = 1;
  /// token_id -> session currently holding that token. Lets kResume find
  /// (and close) a half-open predecessor the server has not noticed is
  /// dead yet, without touching the foreign session's core.
  std::unordered_map<uint64_t, SessionPtr> live_tokens_
      XTC_GUARDED_BY(parked_mu_);

  /// Frames extracted but not yet executed, across sessions.
  std::atomic<size_t> queued_frames_{0};
  std::atomic<size_t> active_tx_{0};

  Mutex dead_fds_mu_;
  std::vector<int> dead_fds_ XTC_GUARDED_BY(dead_fds_mu_);

  // Counters (relaxed; exactness not required).
  std::atomic<uint64_t> stat_sessions_opened_{0};
  std::atomic<uint64_t> stat_sessions_closed_{0};
  std::atomic<uint64_t> stat_sessions_rejected_{0};
  std::atomic<uint64_t> stat_frames_received_{0};
  std::atomic<uint64_t> stat_responses_sent_{0};
  std::atomic<uint64_t> stat_protocol_errors_{0};
  std::atomic<uint64_t> stat_admission_rejected_{0};
  std::atomic<uint64_t> stat_deadline_rejected_{0};
  std::atomic<uint64_t> stat_idle_reaped_{0};
  std::atomic<uint64_t> stat_tx_begun_{0};
  std::atomic<uint64_t> stat_tx_committed_{0};
  std::atomic<uint64_t> stat_tx_aborted_{0};
  std::atomic<uint64_t> stat_sessions_parked_{0};
  std::atomic<uint64_t> stat_sessions_resumed_{0};
  std::atomic<uint64_t> stat_leases_expired_{0};
  std::atomic<uint64_t> stat_dedup_hits_{0};
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_SERVER_H_
