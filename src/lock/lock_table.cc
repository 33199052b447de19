#include "lock/lock_table.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace xtc {

namespace {

/// How many deadlock events the table keeps for analysis (paper §4.2:
/// TaMix + XTCdeadlockDetector record the circumstances of each deadlock).
constexpr size_t kDeadlockLogCapacity = 256;

}  // namespace

LockTable::LockTable(const ModeTable* modes, LockTableOptions options)
    : modes_(modes), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  cache_shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    cache_shards_.push_back(std::make_unique<CacheShard>());
  }
}

LockTable::~LockTable() = default;

void LockTable::CountDeniedRequest(std::string_view resource) {
  Shard& shard = ShardFor(resource);
  MutexLock guard(shard.mu);
  ++shard.requests;
}

LockTable::Shard& LockTable::ShardFor(std::string_view resource) const {
  size_t h = std::hash<std::string_view>{}(resource);
  return *shards_[h % shards_.size()];
}

LockTable::Resource* LockTable::GetOrCreate(Shard* shard,
                                            std::string_view name) {
  auto it = shard->resources.find(name);
  if (it != shard->resources.end()) return it->second.get();
  auto r = std::make_unique<Resource>();
  r->name = std::string(name);
  Resource* raw = r.get();
  shard->resources.emplace(raw->name, std::move(r));
  return raw;
}

LockTable::Held* LockTable::FindHeld(Resource* r, uint64_t tx) {
  for (auto& [id, held] : r->granted) {
    if (id == tx) return &held;
  }
  return nullptr;
}

bool LockTable::CompatibleWithHolders(const Resource& r, uint64_t tx,
                                      ModeId target) const {
  for (const auto& [id, held] : r.granted) {
    if (id == tx) continue;
    if (!modes_->Compatible(held.effective, target)) return false;
  }
  return true;
}

std::vector<uint64_t> LockTable::BlockersOf(const Resource& r, uint64_t tx,
                                            ModeId target, bool is_conversion,
                                            const Waiter* self) const {
  std::vector<uint64_t> blockers;
  for (const auto& [id, held] : r.granted) {
    if (id == tx) continue;
    if (!modes_->Compatible(held.effective, target)) blockers.push_back(id);
  }
  if (!is_conversion) {
    // FIFO fairness: a fresh request also waits for earlier waiters.
    for (const Waiter* w : r.queue) {
      if (w == self) break;
      if (w->tx != tx) blockers.push_back(w->tx);
    }
  }
  return blockers;
}

void LockTable::RemoveWaiter(Resource* r, Waiter* w) {
  auto it = std::find(r->queue.begin(), r->queue.end(), w);
  if (it != r->queue.end()) r->queue.erase(it);
}

void LockTable::EraseResourceIfIdle(Shard* shard, Resource* r) {
  if (r->granted.empty() && r->queue.empty()) {
    shard->resources.erase(r->name);
  }
}

const LockTable::Held* LockTable::GrantLocked(Shard* shard, Resource* r,
                                              uint64_t tx, ModeId request,
                                              ModeId target,
                                              LockDuration duration) {
  Held* held = FindHeld(r, tx);
  if (held == nullptr) {
    r->granted.push_back({tx, Held{}});
    held = &r->granted.back().second;
    shard->tx_locks[tx].push_back(r);
  }
  if (duration == LockDuration::kCommit) {
    held->long_mode = modes_->Convert(held->long_mode, request).result;
  } else {
    held->short_mode = modes_->Convert(held->short_mode, request).result;
  }
  held->effective = target;
  return held;
}

LockOutcome LockTable::Lock(uint64_t tx, std::string_view resource,
                            ModeId mode, LockDuration duration) {
  // Cancellation outranks the cache: a cancelled transaction must see
  // kCancelled on its next request even when the cache could serve it.
  // The check is one acquire load (plus a counter load) in normal
  // operation; cancel_mu_ is only touched while sessions are actually
  // being torn down.
  if (IsCancelled(tx)) {
    CountDeniedRequest(resource);
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    CacheInvalidate(tx);
    return {Status::Cancelled(), kNoMode, kNoMode};
  }
  LockOutcome out;
  // A hit is an immediately granted request served without touching the
  // resource shards (and thus without fault-injection points, which
  // model denials of real table requests). TryCacheHit does the hit/miss
  // accounting shard-locally; GetStats folds hits into requests +
  // immediate_grants.
  if (TryCacheHit(tx, resource, mode, duration, &out)) return out;
  out = LockSlow(tx, resource, mode, duration);
  if (out.status.ok()) {
    CacheStore(tx, resource, out);
  } else {
    // Denied request: the caller is expected to abort, but nothing
    // forces it to — drop the whole cache so a transaction that limps on
    // can never act on state the table may since have changed.
    CacheInvalidate(tx);
  }
  return out;
}

LockOutcome LockTable::LockSlow(uint64_t tx, std::string_view resource,
                                ModeId mode, LockDuration duration) {
  if (options_.fault_injector != nullptr) {
    // Injection happens before any table state changes: the request is
    // denied exactly as a real timeout/victim denial would be, and the
    // caller must abort (releasing whatever it already holds).
    if (options_.fault_injector->ShouldFail(fault_points::kLockTimeout)) {
      CountDeniedRequest(resource);
      stat_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return {Status::LockTimeout("injected lock timeout"), kNoMode, kNoMode};
    }
    if (options_.fault_injector->ShouldFail(fault_points::kLockDeadlock)) {
      CountDeniedRequest(resource);
      stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      DeadlockEvent event;
      event.victim = tx;
      event.resource = std::string(resource);
      event.requested_mode = std::string(modes_->Name(mode));
      event.injected = true;
      event.victim_reason = "injected fault: victim chosen by the fault "
                            "plan, no real cycle existed";
      MutexLock g(graph_mu_);
      deadlock_log_.push_back(std::move(event));
      if (deadlock_log_.size() > kDeadlockLogCapacity) {
        deadlock_log_.pop_front();
      }
      return {Status::Deadlock("injected deadlock victim"), kNoMode, kNoMode};
    }
  }
  Shard& shard = ShardFor(resource);
  MutexLock guard(shard.mu);
  ++shard.requests;

  Resource* r = GetOrCreate(&shard, resource);
  Held* held = FindHeld(r, tx);

  ModeId target = mode;
  ModeId children_mode = kNoMode;
  const bool is_conversion = (held != nullptr);
  if (is_conversion) {
    Conversion conv = modes_->Convert(held->effective, mode);
    target = conv.result;
    children_mode = conv.children_mode;
    if (target == held->effective) {
      // Already strong enough; only the duration bookkeeping may change.
      // The conversion's child-lock side effect still applies: e.g. a CX
      // holder requesting LR keeps CX but owes NR on every child (Fig. 4
      // CX_NR), so children_mode must reach the caller even though the
      // node grant itself is a no-op.
      if (duration == LockDuration::kCommit) {
        held->long_mode = modes_->Convert(held->long_mode, mode).result;
      } else {
        held->short_mode = modes_->Convert(held->short_mode, mode).result;
      }
      ++shard.immediate_grants;
      if (options_.nonblocking) OnNonblockingGrant(tx, resource, target, target,
                                                  duration);
      return {Status::OK(), held->effective, children_mode, held->long_mode};
    }
    ++shard.conversions;
  }

  // Fast path.
  if ((is_conversion || r->queue.empty()) &&
      CompatibleWithHolders(*r, tx, target)) {
    const ModeId previous = is_conversion ? held->effective : kNoMode;
    const Held* h = GrantLocked(&shard, r, tx, mode, target, duration);
    ++shard.immediate_grants;
    if (options_.nonblocking) OnNonblockingGrant(tx, resource, previous,
                                                 target, duration);
    return {Status::OK(), target, children_mode, h->long_mode};
  }

  // Nonblocking (model-checker) path: never enqueue or sleep. Register
  // the wait-for edges a blocked thread would hold, run the same cycle
  // check the wait loop runs, and hand the would-block outcome back to
  // the caller, which owns retry scheduling.
  if (options_.nonblocking) {
    stat_waits_.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint64_t> blockers =
        BlockersOf(*r, tx, target, is_conversion, /*self=*/nullptr);
    XTC_CHECK(!blockers.empty(),
              "nonblocking wait path reached with no blockers");
    {
      MutexLock g(graph_mu_);
      detector_.SetEdges(tx, blockers);
      if (options_.deadlock_detection && detector_.HasCycleFrom(tx)) {
        DeadlockEvent event;
        event.victim = tx;
        event.resource = r->name;
        event.requested_mode = std::string(modes_->Name(target));
        event.conversion = is_conversion;
        event.blockers = blockers.size();
        event.waiting_transactions = detector_.num_waiters();
        event.victim_reason =
            std::string("cycle closer: this transaction's new wait edge "
                        "completed the cycle, and the closer aborts (") +
            (is_conversion ? "conversion wait)" : "fresh-request wait)");
        deadlock_log_.push_back(std::move(event));
        if (deadlock_log_.size() > kDeadlockLogCapacity) {
          deadlock_log_.pop_front();
        }
        detector_.ClearEdges(tx);
        EraseResourceIfIdle(&shard, r);
        stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        if (is_conversion) {
          stat_conv_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        }
        if (options_.probe != nullptr) {
          options_.probe->OnDeadlockVictim(tx, resource, target, blockers);
        }
        return {Status::Deadlock(), kNoMode, kNoMode};
      }
    }
    if (options_.probe != nullptr) {
      options_.probe->OnWouldBlock(tx, resource, target, blockers);
    }
    EraseResourceIfIdle(&shard, r);
    return {Status::WouldBlock(), kNoMode, kNoMode};
  }

  // Slow path: wait.
  stat_waits_.fetch_add(1, std::memory_order_relaxed);
  Waiter waiter{tx, target, is_conversion};
  if (is_conversion) {
    r->queue.push_front(&waiter);  // conversions jump the queue
  } else {
    r->queue.push_back(&waiter);
  }

  const TimePoint deadline = Now() + options_.wait_timeout;
  for (;;) {
    // Re-checked on every wakeup: CancelWaiters/CancelTx set their flag
    // and then notify every shard CV, so a parked waiter lands here
    // within one scheduler quantum instead of sleeping toward the full
    // wait_timeout.
    if (IsCancelled(tx)) {
      {
        MutexLock g(graph_mu_);
        detector_.ClearEdges(tx);
      }
      RemoveWaiter(r, &waiter);
      EraseResourceIfIdle(&shard, r);
      stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
      shard.cv.notify_all();
      return {Status::Cancelled(), kNoMode, kNoMode};
    }
    std::vector<uint64_t> blockers =
        BlockersOf(*r, tx, target, is_conversion, &waiter);
    if (blockers.empty()) {
      const Held* h = GrantLocked(&shard, r, tx, mode, target, duration);
      RemoveWaiter(r, &waiter);
      {
        MutexLock g(graph_mu_);
        detector_.ClearEdges(tx);
      }
      shard.cv.notify_all();  // our dequeue may unblock fairness-waiters
      return {Status::OK(), target, children_mode, h->long_mode};
    }

    {
      MutexLock g(graph_mu_);
      detector_.SetEdges(tx, blockers);
      if (detector_.HasCycleFrom(tx)) {
        DeadlockEvent event;
        event.victim = tx;
        event.resource = r->name;
        event.requested_mode = std::string(modes_->Name(target));
        event.conversion = is_conversion;
        event.blockers = blockers.size();
        event.waiting_transactions = detector_.num_waiters();
        event.victim_reason =
            std::string("cycle closer: this transaction's new wait edge "
                        "completed the cycle, and the closer aborts (") +
            (is_conversion ? "conversion wait)" : "fresh-request wait)");
        deadlock_log_.push_back(std::move(event));
        if (deadlock_log_.size() > kDeadlockLogCapacity) {
          deadlock_log_.pop_front();
        }
        detector_.ClearEdges(tx);
        RemoveWaiter(r, &waiter);
        EraseResourceIfIdle(&shard, r);
        stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        if (is_conversion) {
          stat_conv_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.cv.notify_all();
        return {Status::Deadlock(), kNoMode, kNoMode};
      }
    }

    // The wait goes through the guard's native handle: the analysis
    // cannot see through condition_variable, but the net lock state is
    // unchanged (wait reacquires before returning).
    if (shard.cv.wait_until(guard.native(), deadline) ==
        std::cv_status::timeout) {
      // One last re-check: we may have become grantable at the deadline.
      if (BlockersOf(*r, tx, target, is_conversion, &waiter).empty()) {
        continue;
      }
      {
        MutexLock g(graph_mu_);
        detector_.ClearEdges(tx);
      }
      RemoveWaiter(r, &waiter);
      EraseResourceIfIdle(&shard, r);
      stat_timeouts_.fetch_add(1, std::memory_order_relaxed);
      shard.cv.notify_all();
      return {Status::LockTimeout(), kNoMode, kNoMode};
    }
  }
}

bool LockTable::IsCancelled(uint64_t tx) const {
  if (cancel_all_.load(std::memory_order_acquire)) return true;
  if (num_cancelled_txs_.load(std::memory_order_acquire) == 0) return false;
  MutexLock g(cancel_mu_);
  return cancelled_txs_.count(tx) != 0;
}

void LockTable::WakeAllShards() {
  // The notify runs under each shard mutex so it cannot slip between a
  // waiter's cancel re-check and its cv.wait (the missed-wakeup race):
  // any waiter not yet parked still holds the shard mutex and will see
  // the flag before it sleeps.
  for (auto& shard_ptr : shards_) {
    MutexLock guard(shard_ptr->mu);
    shard_ptr->cv.notify_all();
  }
}

void LockTable::CancelWaiters() {
  cancel_all_.store(true, std::memory_order_release);
  WakeAllShards();
}

void LockTable::CancelTx(uint64_t tx) {
  {
    MutexLock g(cancel_mu_);
    if (!cancelled_txs_.insert(tx).second) return;  // already cancelled
  }
  num_cancelled_txs_.fetch_add(1, std::memory_order_release);
  WakeAllShards();
}

void LockTable::OnNonblockingGrant(uint64_t tx, std::string_view resource,
                                   ModeId previous, ModeId effective,
                                   LockDuration duration) {
  {
    MutexLock g(graph_mu_);
    detector_.ClearEdges(tx);
  }
  if (options_.probe != nullptr) {
    options_.probe->OnGrant(tx, resource, previous, effective, duration);
  }
}

// ---------------------------------------------------------------------------
// Transaction-private cache.
//
// Correctness invariant: while an entry for (tx, resource) exists, it
// equals the table's (long_mode, effective) for that hold.
//  * Entries are only written from successful Lock() outcomes, which
//    carry the post-grant components (resulting_mode / resulting_long).
//  * A hit requires Convert(effective, mode) == {effective, kNoMode}
//    (and the same for long_mode on kCommit requests), which is exactly
//    the table's "already strong enough" early-exit — the real call
//    would change neither component, so skipping it preserves the
//    mirror. In particular a conversion that would escalate the mode or
//    demand Fig. 4 children locks can never hit.
//  * EndOperation applies the same transition the table does
//    (effective := long_mode, entry dropped when that is kNoMode); for
//    entries whose table short component is empty this is a no-op
//    because effective == long_mode already holds there.
//  * ReleaseAll and failed requests drop the whole per-tx cache.
// Because the invariant is unconditional, dropping entries at any point
// is always safe — the next request merely misses and re-seeds from
// table truth.
// ---------------------------------------------------------------------------

LockTable::CacheShard& LockTable::CacheShardFor(uint64_t tx) const {
  return *cache_shards_[std::hash<uint64_t>{}(tx) % cache_shards_.size()];
}

bool LockTable::TryCacheHit(uint64_t tx, std::string_view resource,
                            ModeId mode, LockDuration duration,
                            LockOutcome* out) const {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto it = cs.tx.find(tx);
  if (it == cs.tx.end()) {
    ++cs.misses;
    return false;
  }
  auto eit = it->second.find(resource);
  if (eit == it->second.end()) {
    ++cs.misses;
    return false;
  }
  const CacheEntry& e = eit->second;
  const Conversion conv = modes_->Convert(e.effective, mode);
  if (conv.result != e.effective || conv.children_mode != kNoMode) {
    ++cs.misses;
    return false;
  }
  if (duration == LockDuration::kCommit) {
    // The effective mode covering the request is not enough: if only the
    // short component covers it, EndOperation would drop a lock the
    // caller was promised until commit.
    const Conversion long_conv = modes_->Convert(e.long_mode, mode);
    if (long_conv.result != e.long_mode || long_conv.children_mode != kNoMode) {
      ++cs.misses;
      return false;
    }
  }
  ++cs.hits;
  *out = {Status::OK(), e.effective, kNoMode, e.long_mode};
  return true;
}

void LockTable::CacheStore(uint64_t tx, std::string_view resource,
                           const LockOutcome& out) {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto& entries = cs.tx[tx];
  auto it = entries.find(resource);
  if (it == entries.end()) {
    entries.emplace(std::string(resource),
                    CacheEntry{out.resulting_long, out.resulting_mode});
  } else {
    it->second = CacheEntry{out.resulting_long, out.resulting_mode};
  }
}

void LockTable::CacheEndOperation(uint64_t tx) {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto it = cs.tx.find(tx);
  if (it == cs.tx.end()) return;
  auto& entries = it->second;
  for (auto eit = entries.begin(); eit != entries.end();) {
    if (eit->second.long_mode == kNoMode) {
      eit = entries.erase(eit);
    } else {
      eit->second.effective = eit->second.long_mode;
      ++eit;
    }
  }
  if (entries.empty()) cs.tx.erase(it);
}

void LockTable::CacheInvalidate(uint64_t tx) {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto it = cs.tx.find(tx);
  if (it == cs.tx.end()) return;
  cs.tx.erase(it);
  stat_cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

ModeId LockTable::CachedMode(uint64_t tx, std::string_view resource) const {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto it = cs.tx.find(tx);
  if (it == cs.tx.end()) return kNoMode;
  auto eit = it->second.find(resource);
  return eit == it->second.end() ? kNoMode : eit->second.effective;
}

size_t LockTable::CachedLocksFor(uint64_t tx) const {
  CacheShard& cs = CacheShardFor(tx);
  MutexLock guard(cs.mu);
  auto it = cs.tx.find(tx);
  return it == cs.tx.end() ? 0 : it->second.size();
}

void LockTable::EndOperation(uint64_t tx) {
  CacheEndOperation(tx);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock guard(shard.mu);
    auto it = shard.tx_locks.find(tx);
    if (it == shard.tx_locks.end()) continue;
    auto& list = it->second;
    bool changed = false;
    for (size_t i = 0; i < list.size();) {
      Resource* r = list[i];
      Held* h = FindHeld(r, tx);
      // tx_locks and granted must stay in lockstep; a miss here means a
      // release path forgot one side and downgrades would corrupt state.
      XTC_CHECK(h != nullptr,
                "tx_locks lists a resource the transaction no longer holds");
      if (h->short_mode != kNoMode) {
        h->short_mode = kNoMode;
        h->effective = h->long_mode;
        changed = true;
        if (h->effective == kNoMode) {
          auto git =
              std::find_if(r->granted.begin(), r->granted.end(),
                           [tx](const auto& p) { return p.first == tx; });
          r->granted.erase(git);
          EraseResourceIfIdle(&shard, r);
          list[i] = list.back();
          list.pop_back();
          continue;
        }
      }
      ++i;
    }
    if (list.empty()) shard.tx_locks.erase(it);
    if (changed) shard.cv.notify_all();
  }
}

void LockTable::ReleaseAll(uint64_t tx) {
  // Cache first: it must never claim a lock the table has let go.
  CacheInvalidate(tx);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock guard(shard.mu);
    auto it = shard.tx_locks.find(tx);
    if (it == shard.tx_locks.end()) continue;
    for (Resource* r : it->second) {
      auto git = std::find_if(r->granted.begin(), r->granted.end(),
                              [tx](const auto& p) { return p.first == tx; });
      if (git != r->granted.end()) r->granted.erase(git);
      EraseResourceIfIdle(&shard, r);
    }
    shard.tx_locks.erase(it);
    shard.cv.notify_all();
  }
  {
    MutexLock g(graph_mu_);
    detector_.ClearEdges(tx);
  }
  // The transaction is gone; a later run may reuse its id, so the sticky
  // per-tx cancel must not outlive it.
  if (num_cancelled_txs_.load(std::memory_order_acquire) != 0) {
    MutexLock g(cancel_mu_);
    if (cancelled_txs_.erase(tx) != 0) {
      num_cancelled_txs_.fetch_sub(1, std::memory_order_release);
    }
  }
}

std::vector<LockTable::HoldSnapshot> LockTable::SnapshotHolds() const {
  std::vector<HoldSnapshot> out;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    for (const auto& [name, r] : shard->resources) {
      for (const auto& [id, held] : r->granted) {
        out.push_back(HoldSnapshot{id, name, held.long_mode, held.short_mode,
                                   held.effective});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HoldSnapshot& a, const HoldSnapshot& b) {
              if (a.resource != b.resource) return a.resource < b.resource;
              return a.tx < b.tx;
            });
  return out;
}

ModeId LockTable::HeldMode(uint64_t tx, std::string_view resource) const {
  Shard& shard = ShardFor(resource);
  MutexLock guard(shard.mu);
  auto it = shard.resources.find(resource);
  if (it == shard.resources.end()) return kNoMode;
  for (const auto& [id, held] : it->second->granted) {
    if (id == tx) return held.effective;
  }
  return kNoMode;
}

size_t LockTable::NumLockedResources() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    total += shard->resources.size();
  }
  return total;
}

size_t LockTable::NumWaitingTransactions() const {
  MutexLock g(graph_mu_);
  return detector_.num_waiters();
}

size_t LockTable::LocksHeldBy(uint64_t tx) const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    auto it = shard->tx_locks.find(tx);
    if (it != shard->tx_locks.end()) total += it->second.size();
  }
  return total;
}

LockTableStats LockTable::GetStats() const {
  LockTableStats s;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    s.requests += shard->requests;
    s.immediate_grants += shard->immediate_grants;
    s.conversions += shard->conversions;
  }
  s.waits = stat_waits_.load(std::memory_order_relaxed);
  s.deadlocks = stat_deadlocks_.load(std::memory_order_relaxed);
  s.conversion_deadlocks =
      stat_conv_deadlocks_.load(std::memory_order_relaxed);
  s.timeouts = stat_timeouts_.load(std::memory_order_relaxed);
  s.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  s.cache_invalidations =
      stat_cache_invalidations_.load(std::memory_order_relaxed);
  for (const auto& cs : cache_shards_) {
    MutexLock guard(cs->mu);
    s.cache_hits += cs->hits;
    s.cache_misses += cs->misses;
  }
  // A cache hit is an immediately granted request that never reached the
  // shard counters.
  s.requests += s.cache_hits;
  s.immediate_grants += s.cache_hits;
  return s;
}

std::vector<DeadlockEvent> LockTable::RecentDeadlocks() const {
  MutexLock g(graph_mu_);
  return std::vector<DeadlockEvent>(deadlock_log_.begin(),
                                    deadlock_log_.end());
}

void LockTable::ResetStats() {
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    shard->requests = 0;
    shard->immediate_grants = 0;
    shard->conversions = 0;
  }
  stat_waits_.store(0, std::memory_order_relaxed);
  stat_deadlocks_.store(0, std::memory_order_relaxed);
  stat_conv_deadlocks_.store(0, std::memory_order_relaxed);
  stat_timeouts_.store(0, std::memory_order_relaxed);
  stat_cancelled_.store(0, std::memory_order_relaxed);
  stat_cache_invalidations_.store(0, std::memory_order_relaxed);
  for (const auto& cs : cache_shards_) {
    MutexLock guard(cs->mu);
    cs->hits = 0;
    cs->misses = 0;
  }
}

}  // namespace xtc
