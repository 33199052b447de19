// Benchmark metrics (paper §4.1): committed / aborted transactions per
// type, transaction durations, deadlock counts and classification.

#ifndef XTC_TAMIX_METRICS_H_
#define XTC_TAMIX_METRICS_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "lock/lock_table.h"
#include "net/net_stats.h"
#include "repl/repl_stats.h"
#include "storage/buffer_manager.h"
#include "tamix/transactions.h"
#include "wal/wal.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace xtc {

/// Fixed-size log-scale latency histogram (microsecond samples). Buckets
/// are octaves refined by 2 extra significand bits (4 sub-buckets per
/// power of two), so a recorded value lands in a bucket whose width is at
/// most 1/4 of its magnitude — percentile estimates carry ≤ 25 % relative
/// error, plenty for the saturation bench's p99 while keeping the whole
/// histogram at a fixed 1.3 kB (mergeable across types/workers by plain
/// addition, no allocation on the record path).
struct LatencyHistogram {
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBuckets = 40 * kSub;  // covers > 150 hours in µs
  std::array<uint64_t, kBuckets> counts{};
  uint64_t total = 0;

  static int BucketFor(int64_t us);
  /// Upper bound (µs) of the bucket, the value Percentile reports.
  static int64_t BucketUpper(int bucket);

  void Record(int64_t us);
  void Merge(const LatencyHistogram& other);
  /// Smallest recorded-bucket upper bound covering fraction `p` (0..1]
  /// of the samples; 0 when empty.
  int64_t PercentileUs(double p) const;
};

struct TxTypeStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t timeout_aborts = 0;
  /// Aborted attempts that were retried (chaos mode's bounded retry loop).
  uint64_t retries = 0;
  /// Aborts in which at least one undo action reported failure.
  uint64_t undo_failures = 0;
  int64_t total_duration_us = 0;  // committed transactions only
  int64_t min_duration_us = 0;
  int64_t max_duration_us = 0;
  /// Commit-latency distribution (committed transactions only, like the
  /// duration aggregates above).
  LatencyHistogram latency;

  double avg_duration_ms() const {
    return committed == 0
               ? 0.0
               : static_cast<double>(total_duration_us) / 1000.0 /
                     static_cast<double>(committed);
  }
  double p50_ms() const { return latency.PercentileUs(0.50) / 1000.0; }
  double p95_ms() const { return latency.PercentileUs(0.95) / 1000.0; }
  double p99_ms() const { return latency.PercentileUs(0.99) / 1000.0; }

  /// The public names (util/stats.h; snapshot prefix "tx.<type>."). The
  /// histogram is not listed: the snapshot adds its avg/p50/p95/p99.
  template <typename F>
  static void Fields(F&& f) {
    f("committed", &TxTypeStats::committed);
    f("aborted", &TxTypeStats::aborted);
    f("deadlock_aborts", &TxTypeStats::deadlock_aborts);
    f("timeout_aborts", &TxTypeStats::timeout_aborts);
    f("retries", &TxTypeStats::retries);
    f("undo_failures", &TxTypeStats::undo_failures);
    f("total_duration_us", &TxTypeStats::total_duration_us);
    f("min_duration_us", &TxTypeStats::min_duration_us);
    f("max_duration_us", &TxTypeStats::max_duration_us);
  }
};

/// Everything one run measured: the per-type workload counters plus
/// each component's own stats struct, embedded as it is. Components a
/// run did not have (WAL, replication, socket front-end, chaos proxy)
/// stay all zero.
struct RunStats {
  std::array<TxTypeStats, kNumTxTypes> per_type;
  LockTableStats lock_stats;
  BufferPoolStats buffer;
  WalStats wal;
  ReplicationStats repl;
  /// Socket front-end: the embedded server, the sum over every worker's
  /// client, and the interposed chaos proxy.
  net::ServerStats server;
  net::ClientNetStats clients;
  net::ChaosProxyStats chaos;
  int64_t run_duration_ms = 0;

  uint64_t total_committed() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.committed;
    return n;
  }
  uint64_t total_aborted() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.aborted;
    return n;
  }
  uint64_t total_deadlocks() const { return lock_stats.deadlocks; }
  uint64_t total_retries() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.retries;
    return n;
  }
  uint64_t total_undo_failures() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.undo_failures;
    return n;
  }

  /// Committed transactions normalized to the paper's 5-minute runs.
  double throughput_per_5min() const {
    if (run_duration_ms <= 0) return 0.0;
    return static_cast<double>(total_committed()) * 300000.0 /
           static_cast<double>(run_duration_ms);
  }

  /// Commit-latency distribution across every transaction type (the
  /// saturation bench's view: one mixed-workload percentile).
  LatencyHistogram merged_latency() const {
    LatencyHistogram h;
    for (const auto& s : per_type) h.Merge(s.latency);
    return h;
  }
  double p50_ms() const { return merged_latency().PercentileUs(0.50) / 1000.0; }
  double p95_ms() const { return merged_latency().PercentileUs(0.95) / 1000.0; }
  double p99_ms() const { return merged_latency().PercentileUs(0.99) / 1000.0; }

  /// Every counter as one ordered flat list of named values (names in
  /// docs/metrics.md): run.*, tx.<type>.*, lock.*, storage.*, wal.*,
  /// repl.*, net.server.*, net.client.*, net.chaos.*.
  StatsSnapshot Snapshot() const;
};

/// Thread-safe collector the workers report into.
class MetricsCollector {
 public:
  /// Marks the instant the timed run begins. Until the coordinator
  /// overwrites run_duration_ms with the final elapsed time, every
  /// Snapshot() reports the live elapsed time since this mark — a
  /// mid-run poller (the server's stats request) must see a non-zero
  /// duration or throughput_per_5min() reads 0.0.
  void MarkRunStart() XTC_EXCLUDES(mu_);
  void RecordCommit(TxType type, int64_t duration_us) XTC_EXCLUDES(mu_);
  void RecordAbort(TxType type, const Status& reason) XTC_EXCLUDES(mu_);
  void RecordRetry(TxType type) XTC_EXCLUDES(mu_);
  void RecordUndoFailure(TxType type) XTC_EXCLUDES(mu_);
  RunStats Snapshot() const XTC_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::array<TxTypeStats, kNumTxTypes> per_type_ XTC_GUARDED_BY(mu_);
  bool started_ XTC_GUARDED_BY(mu_) = false;
  TimePoint run_start_ XTC_GUARDED_BY(mu_);
};

}  // namespace xtc

#endif  // XTC_TAMIX_METRICS_H_
