// Generic lock table used by every protocol (paper §3.3: the lock manager
// as an exchangeable abstract data type).
//
// Resources are opaque byte strings (encoded SPLIDs for nodes, tagged
// SPLID+kind strings for edges — see lock/xml_protocol.h). Each
// transaction holds at most one lock per resource: requests on an
// already-held resource go through the protocol's conversion matrix
// (single lock per node rule, §2.3). Locks carry a duration class so the
// isolation levels of §4.3/§5.1 can be expressed:
//   kCommit    — held until ReleaseAll (long locks),
//   kOperation — released by EndOperation (short read locks of isolation
//                level "committed").
//
// Scalability: the table is sharded by resource hash; the uncontended
// fast path touches only one shard mutex. The wait-for graph (deadlock
// detection) has its own global mutex touched only when a request
// actually blocks. Blocking requests enqueue FIFO per resource
// (conversions jump the queue); a cycle check runs on every (re-)block,
// so deadlocks are detected immediately. The requester that closes a
// cycle is the victim; it receives kDeadlock and must abort.
//
// Transaction-private lock cache: every DOM operation re-acquires the
// whole ancestor path of intention locks (§3.2), so the vast majority of
// requests ask for a mode the transaction already holds. LockTable keeps
// a per-tx mirror of (long_mode, effective) for each held resource,
// sharded by transaction id so cache lookups never touch the contended
// resource shards. A request is served from the cache — skipping the
// resource shard round trip entirely — only when the conversion matrix
// proves it is a no-op: Convert(effective, mode) == {effective, kNoMode}
// (and, for kCommit requests, the same for the long component, so a
// short hold is never mistaken for commit-duration coverage). Because
// entries are only ever written from Lock() outcomes (table truth), the
// mirror is exact while it exists, and dropping it at any time is always
// safe. It is dropped/downgraded coherently on EndOperation, ReleaseAll,
// and any failed request (deadlock/timeout victimization, including
// fault-injected victims). Conversions that would escalate the mode or
// demand Fig. 4 children_mode side effects never match the hit
// condition, so they always take the full table path.
//
// Cancellation: a waiter parked on a shard CV sleeps toward wait_timeout
// (10 s by default) — far too long for coordinator stop, server drain, or
// a disconnected client. CancelWaiters() (global, irreversible) and
// CancelTx() (per transaction, sticky until ReleaseAll) wake the shard
// CVs; affected requests — parked and future — return kCancelled, a
// non-retryable status whose only correct handling is to abort the
// transaction.

#ifndef XTC_LOCK_LOCK_TABLE_H_
#define XTC_LOCK_LOCK_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/deadlock_detector.h"
#include "lock/mode_table.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

enum class LockDuration : uint8_t { kOperation = 0, kCommit = 1 };

/// Observation hook for the protocol model checker (tools/protoverify).
/// Callbacks fire from inside Lock() while the resource shard mutex is
/// held, so implementations must not call back into the table. The
/// threaded engine never installs one; see LockTableOptions::probe. A
/// request served from the tx-private cache changes no table state and
/// fires no callback.
class LockEventProbe {
 public:
  virtual ~LockEventProbe() = default;
  /// A request was granted (fresh lock or conversion). `effective` is the
  /// mode now held; `previous` the effective mode before the request
  /// (kNoMode for a fresh lock).
  virtual void OnGrant(uint64_t tx, std::string_view resource,
                       ModeId previous, ModeId effective,
                       LockDuration duration) = 0;
  /// Nonblocking mode only: the request had to wait on `blockers` and
  /// Lock() is about to return kWouldBlock (no cycle was found).
  virtual void OnWouldBlock(uint64_t tx, std::string_view resource,
                            ModeId target,
                            const std::vector<uint64_t>& blockers) = 0;
  /// The request closed a wait-for cycle and `tx` was chosen as the
  /// victim (Lock() returns kDeadlock).
  virtual void OnDeadlockVictim(uint64_t tx, std::string_view resource,
                                ModeId target,
                                const std::vector<uint64_t>& blockers) = 0;
};

struct LockOutcome {
  Status status;
  /// Mode the transaction now holds on the resource (on success).
  ModeId resulting_mode = kNoMode;
  /// Non-kNoMode when the conversion demands locks on all direct
  /// children (Fig. 4 subscripted rules); the protocol performs them.
  ModeId children_mode = kNoMode;
  /// Commit-duration component of the hold after this grant (kNoMode for
  /// a purely operation-duration hold). The tx-private cache seeds its
  /// entries from this so cached state is always table truth.
  ModeId resulting_long = kNoMode;
};

struct LockTableStats {
  uint64_t requests = 0;
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t conversion_deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t conversions = 0;
  /// Requests denied with kCancelled (coordinator stop, server drain, or
  /// a per-transaction cancel on client disconnect).
  uint64_t cancelled = 0;
  /// Tx-private cache: requests served without a resource-shard round
  /// trip (these still count as requests + immediate_grants).
  uint64_t cache_hits = 0;
  /// Requests that consulted the cache but took the full table path.
  uint64_t cache_misses = 0;
  /// Times a transaction's whole cache was dropped (ReleaseAll or a
  /// failed request — deadlock/timeout/injected victim).
  uint64_t cache_invalidations = 0;

  /// The public names (util/stats.h; snapshot prefix "lock.").
  template <typename F>
  static void Fields(F&& f) {
    f("requests", &LockTableStats::requests);
    f("immediate_grants", &LockTableStats::immediate_grants);
    f("waits", &LockTableStats::waits);
    f("deadlocks", &LockTableStats::deadlocks);
    f("conversion_deadlocks", &LockTableStats::conversion_deadlocks);
    f("timeouts", &LockTableStats::timeouts);
    f("conversions", &LockTableStats::conversions);
    f("cancelled", &LockTableStats::cancelled);
    f("cache_hits", &LockTableStats::cache_hits);
    f("cache_misses", &LockTableStats::cache_misses);
    f("cache_invalidations", &LockTableStats::cache_invalidations);
  }
};

struct LockTableOptions {
  Duration wait_timeout = std::chrono::seconds(10);
  uint32_t shards = 32;
  /// When set, Lock() evaluates the "lock.timeout" and "lock.deadlock"
  /// fault points on entry (spurious timeout / forced victim status).
  FaultInjector* fault_injector = nullptr;
  /// Deterministic single-threaded mode for the protocol model checker:
  /// a request that would have to wait returns kWouldBlock immediately
  /// instead of blocking on the shard condition variable. The waiter's
  /// wait-for edges stay registered in the deadlock detector until the
  /// transaction is granted the resource, is victimized, or releases —
  /// exactly the window a blocked thread would occupy them — so a later
  /// request by another transaction that closes a cycle is victimized
  /// just as in threaded operation. FIFO fairness does not apply (there
  /// is no persistent queue); the caller decides retry order, which is
  /// precisely what a schedule enumerator wants to control.
  bool nonblocking = false;
  /// Observation hook (nonblocking/model-checking builds only).
  LockEventProbe* probe = nullptr;
  /// Testing backdoor for protoverify --selftest: when false, the
  /// wait-path cycle check is skipped, so real deadlocks go undetected
  /// (nonblocking mode reports kWouldBlock forever). The checker must
  /// flag the resulting stall as an undetected deadlock; never disable
  /// this anywhere else.
  bool deadlock_detection = true;
};

/// One recorded deadlock (the victim's view at detection time).
struct DeadlockEvent {
  uint64_t victim = 0;
  std::string resource;        // where the victim was waiting
  std::string requested_mode;  // target mode of the victim
  bool conversion = false;     // lock-conversion deadlock (frequent case)
  size_t blockers = 0;         // transactions the victim waited for
  size_t waiting_transactions = 0;  // wait-for-graph size at detection
  bool injected = false;       // fault-injected victim (no real cycle)
  /// Why *this* transaction was chosen as the victim (post-mortem
  /// tooling reads this straight out of RecentDeadlocks()).
  std::string victim_reason;
};

class LockTable {
 public:
  LockTable(const ModeTable* modes, LockTableOptions options = {});
  ~LockTable();

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Acquires (or converts to) `mode` on `resource` for transaction `tx`.
  /// Blocks until granted, deadlock, or timeout.
  LockOutcome Lock(uint64_t tx, std::string_view resource, ModeId mode,
                   LockDuration duration);

  /// Releases this transaction's operation-duration locks (downgrading
  /// mixed-duration holds to their long component).
  void EndOperation(uint64_t tx);

  /// Releases everything the transaction holds (commit/abort).
  void ReleaseAll(uint64_t tx);

  // --- Cancellation (shutdown/drain; see file comment) -----------------
  /// Shuts lock waiting down: every parked waiter is woken and returns
  /// kCancelled, and every future request is denied the same way. Used by
  /// the coordinator when the run stops (a waiter must not sleep toward
  /// the full wait_timeout with the testbed already joining) and by the
  /// server's graceful drain. Irreversible for the table's lifetime.
  void CancelWaiters();
  /// Cancels one transaction's current and future lock waits (server
  /// session teardown: the client vanished, its parked request must not
  /// keep the worker thread hostage). Sticky until ReleaseAll(tx).
  void CancelTx(uint64_t tx);
  /// Whether CancelWaiters() has been called.
  bool cancelling() const {
    return cancel_all_.load(std::memory_order_acquire);
  }

  const ModeTable& modes() const { return *modes_; }

  // Introspection (tests / reporting).
  /// One granted (tx, resource) hold. effective == Convert-closure of the
  /// duration components; see Held in the implementation.
  struct HoldSnapshot {
    uint64_t tx = 0;
    std::string resource;
    ModeId long_mode = kNoMode;
    ModeId short_mode = kNoMode;
    ModeId effective = kNoMode;
    bool operator==(const HoldSnapshot&) const = default;
  };
  /// Every hold in the table, sorted by (resource, tx) so the result is a
  /// deterministic fingerprint of the lock state (the model checker hashes
  /// it for schedule-state deduplication).
  std::vector<HoldSnapshot> SnapshotHolds() const;
  ModeId HeldMode(uint64_t tx, std::string_view resource) const;
  size_t NumLockedResources() const;
  size_t LocksHeldBy(uint64_t tx) const;
  /// Effective mode the cache remembers for (tx, resource); kNoMode when
  /// no entry exists. While an entry exists it mirrors HeldMode exactly;
  /// an absent entry says nothing (the cache is dropped conservatively).
  ModeId CachedMode(uint64_t tx, std::string_view resource) const;
  /// Number of resources the tx-private cache remembers for `tx`.
  size_t CachedLocksFor(uint64_t tx) const;
  /// Residual wait-for-graph entries (must be 0 when the system is
  /// quiescent — every waiter clears its edges on grant/deadlock/timeout
  /// and ReleaseAll clears the rest).
  size_t NumWaitingTransactions() const;
  LockTableStats GetStats() const;
  void ResetStats();

  /// The most recent deadlock events (oldest first; the last 256 kept).
  std::vector<DeadlockEvent> RecentDeadlocks() const;

 private:
  struct Held {
    ModeId long_mode = kNoMode;
    ModeId short_mode = kNoMode;
    ModeId effective = kNoMode;
  };

  struct Waiter {
    uint64_t tx;
    ModeId target;
    bool is_conversion;
  };

  struct Resource {
    std::string name;
    std::vector<std::pair<uint64_t, Held>> granted;
    std::deque<Waiter*> queue;
  };

  /// Heterogeneous (string_view) lookup so the hot path never builds a
  /// std::string just to probe a map.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct alignas(64) Shard {
    mutable Mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, std::unique_ptr<Resource>, StringHash,
                       std::equal_to<>>
        resources XTC_GUARDED_BY(mu);
    // Resources in this shard each transaction holds locks on.
    std::unordered_map<uint64_t, std::vector<Resource*>>
        tx_locks XTC_GUARDED_BY(mu);
    // Table-request counters, plain fields under the mutex every request
    // takes anyway (process-wide atomics bounced one cache line between
    // all threads on every request); GetStats sums them.
    uint64_t requests XTC_GUARDED_BY(mu) = 0;
    uint64_t immediate_grants XTC_GUARDED_BY(mu) = 0;
    uint64_t conversions XTC_GUARDED_BY(mu) = 0;
  };

  // --- Transaction-private cache (see file comment) ---

  /// Mirror of the Held components the hit condition needs. The short
  /// component is deliberately absent: EndOperation's transition
  /// (effective := long, drop if long == kNoMode) is expressible without
  /// it, and a hit never changes either component.
  struct CacheEntry {
    ModeId long_mode = kNoMode;
    ModeId effective = kNoMode;
  };

  using TxCacheEntries =
      std::unordered_map<std::string, CacheEntry, StringHash, std::equal_to<>>;

  /// Sharded by transaction id, not resource: a transaction's lookups all
  /// land on one shard that other transactions touch only by id-hash
  /// collision, so the hot path is effectively contention-free. Hit/miss
  /// counters live here too (plain fields under the shard mutex the hit
  /// path already holds): global atomics would put two contended
  /// cache-line bounces on every hit and erase most of the win. Aligned
  /// so adjacent heap-allocated shards never share a cache line — every
  /// probe writes the counters, and cross-shard false sharing would turn
  /// those thread-private writes back into cross-core traffic.
  struct alignas(128) CacheShard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, TxCacheEntries> tx XTC_GUARDED_BY(mu);
    uint64_t hits XTC_GUARDED_BY(mu) = 0;
    uint64_t misses XTC_GUARDED_BY(mu) = 0;
  };

  CacheShard& CacheShardFor(uint64_t tx) const;
  /// Serves the request from the cache when the conversion matrix proves
  /// it is a no-op at the requested duration. Fills *out on hit and does
  /// all hit/miss accounting (shard-local; a hit touches no global
  /// atomic at all).
  bool TryCacheHit(uint64_t tx, std::string_view resource, ModeId mode,
                   LockDuration duration, LockOutcome* out) const;
  /// Records a successful Lock() outcome (table truth) for (tx, resource).
  void CacheStore(uint64_t tx, std::string_view resource,
                  const LockOutcome& out);
  /// EndOperation transition: effective := long, drop pure-short entries.
  void CacheEndOperation(uint64_t tx);
  /// Drops everything the cache knows about `tx` (ReleaseAll / any failed
  /// request). Counts a cache_invalidation if entries existed.
  void CacheInvalidate(uint64_t tx);

  Shard& ShardFor(std::string_view resource) const;
  /// Counts a request denied before it reached the table (cancelled or
  /// injected) in its resource's shard.
  void CountDeniedRequest(std::string_view resource);

  /// True when CancelWaiters() fired or `tx` is individually cancelled.
  bool IsCancelled(uint64_t tx) const XTC_EXCLUDES(cancel_mu_);
  /// Wakes every shard CV so parked waiters re-check their cancel state.
  void WakeAllShards();

  /// The full table path of Lock() (everything after the cache probe).
  LockOutcome LockSlow(uint64_t tx, std::string_view resource, ModeId mode,
                       LockDuration duration);

  /// Nonblocking-mode bookkeeping for every successful grant: clears the
  /// transaction's wait-for edges (its pending retry succeeded) and fires
  /// the probe. Called with the resource shard mutex held; takes
  /// graph_mu_, consistent with the shard-then-graph lock order.
  void OnNonblockingGrant(uint64_t tx, std::string_view resource,
                          ModeId previous, ModeId effective,
                          LockDuration duration) XTC_EXCLUDES(graph_mu_);

  // The following require the shard mutex (Resource objects themselves
  // are only reachable through Shard::resources, so helpers that take a
  // bare Resource* inherit the caller's shard lock).
  static Resource* GetOrCreate(Shard* shard, std::string_view name)
      XTC_REQUIRES(shard->mu);
  static Held* FindHeld(Resource* r, uint64_t tx);
  bool CompatibleWithHolders(const Resource& r, uint64_t tx,
                             ModeId target) const;
  std::vector<uint64_t> BlockersOf(const Resource& r, uint64_t tx,
                                   ModeId target, bool is_conversion,
                                   const Waiter* self) const;
  static void RemoveWaiter(Resource* r, Waiter* w);
  static void EraseResourceIfIdle(Shard* shard, Resource* r)
      XTC_REQUIRES(shard->mu);
  /// Applies the grant to the holder entry and returns it (so callers can
  /// read the post-grant long component for the cache).
  const Held* GrantLocked(Shard* shard, Resource* r, uint64_t tx,
                          ModeId request, ModeId target, LockDuration duration)
      XTC_REQUIRES(shard->mu);

  const ModeTable* modes_;
  LockTableOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<CacheShard>> cache_shards_;

  // Wait-for graph; only touched when a request blocks. Ordering: a
  // thread may take graph_mu_ while holding a shard mutex (Lock's block
  // path), never the reverse.
  mutable Mutex graph_mu_ XTC_ACQUIRED_AFTER();
  DeadlockDetector detector_ XTC_GUARDED_BY(graph_mu_);
  std::deque<DeadlockEvent> deadlock_log_ XTC_GUARDED_BY(graph_mu_);

  // Cancellation state. cancel_all_ is checked lock-free on the hot
  // path; the per-tx set is only consulted when num_cancelled_txs_ says
  // it is non-empty, so normal operation never touches cancel_mu_.
  // Ordering: cancel_mu_ may be taken while holding a shard mutex
  // (waiter re-check), so Cancel* must never hold cancel_mu_ while
  // taking a shard mutex.
  std::atomic<bool> cancel_all_{false};
  std::atomic<size_t> num_cancelled_txs_{0};
  mutable Mutex cancel_mu_ XTC_ACQUIRED_AFTER();
  std::unordered_set<uint64_t> cancelled_txs_ XTC_GUARDED_BY(cancel_mu_);

  // Statistics (relaxed atomics; exactness is not required). Requests,
  // immediate grants and conversions are counted per Shard.
  std::atomic<uint64_t> stat_waits_{0};
  std::atomic<uint64_t> stat_deadlocks_{0};
  std::atomic<uint64_t> stat_conv_deadlocks_{0};
  std::atomic<uint64_t> stat_timeouts_{0};
  std::atomic<uint64_t> stat_cancelled_{0};
  std::atomic<uint64_t> stat_cache_invalidations_{0};
};

}  // namespace xtc

#endif  // XTC_LOCK_LOCK_TABLE_H_
