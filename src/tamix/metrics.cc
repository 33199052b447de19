#include "tamix/metrics.h"

#include <bit>

namespace xtc {

int LatencyHistogram::BucketFor(int64_t us) {
  if (us < 0) us = 0;
  const uint64_t v = static_cast<uint64_t>(us);
  if (v < kSub) return static_cast<int>(v);  // exact for tiny values
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((v >> shift) & (kSub - 1));
  const int bucket = ((msb - kSubBits + 1) << kSubBits) + sub;
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

int64_t LatencyHistogram::BucketUpper(int bucket) {
  if (bucket < kSub) return bucket;
  const int octave = bucket >> kSubBits;
  const int sub = bucket & (kSub - 1);
  const int shift = octave - 1;
  return ((static_cast<int64_t>(kSub + sub) + 1) << shift) - 1;
}

void LatencyHistogram::Record(int64_t us) {
  ++counts[BucketFor(us)];
  ++total;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
}

int64_t LatencyHistogram::PercentileUs(double p) const {
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested sample, 1-based: the smallest bucket whose
  // cumulative count reaches it bounds the percentile from above.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) return BucketUpper(i);
  }
  return BucketUpper(kBuckets - 1);
}

StatsSnapshot RunStats::Snapshot() const {
  StatsSnapshot out;
  out.push_back({"run.duration_ms", static_cast<uint64_t>(run_duration_ms)});
  for (int t = 0; t < kNumTxTypes; ++t) {
    const TxTypeStats& s = per_type[static_cast<size_t>(t)];
    const std::string prefix =
        "tx." + std::string(TxTypeName(static_cast<TxType>(t))) + ".";
    AppendFields(prefix, s, &out);
    out.push_back({prefix + "avg_us",
                   static_cast<uint64_t>(s.avg_duration_ms() * 1000.0)});
    out.push_back({prefix + "p50_us",
                   static_cast<uint64_t>(s.latency.PercentileUs(0.50))});
    out.push_back({prefix + "p95_us",
                   static_cast<uint64_t>(s.latency.PercentileUs(0.95))});
    out.push_back({prefix + "p99_us",
                   static_cast<uint64_t>(s.latency.PercentileUs(0.99))});
  }
  AppendFields("lock.", lock_stats, &out);
  AppendFields("storage.", buffer, &out);
  AppendFields("wal.", wal, &out);
  AppendFields("repl.", repl, &out);
  out.push_back({"repl.ship_lag_bytes", repl.ship_lag_bytes()});
  AppendFields("net.server.", server, &out);
  AppendFields("net.client.", clients, &out);
  AppendFields("net.chaos.", chaos, &out);
  return out;
}

void MetricsCollector::MarkRunStart() {
  MutexLock guard(mu_);
  started_ = true;
  run_start_ = Now();
}

void MetricsCollector::RecordCommit(TxType type, int64_t duration_us) {
  MutexLock guard(mu_);
  TxTypeStats& s = per_type_[static_cast<size_t>(type)];
  if (s.committed == 0 || duration_us < s.min_duration_us) {
    s.min_duration_us = duration_us;
  }
  if (duration_us > s.max_duration_us) s.max_duration_us = duration_us;
  s.total_duration_us += duration_us;
  s.latency.Record(duration_us);
  ++s.committed;
}

void MetricsCollector::RecordAbort(TxType type, const Status& reason) {
  MutexLock guard(mu_);
  TxTypeStats& s = per_type_[static_cast<size_t>(type)];
  ++s.aborted;
  if (reason.code() == StatusCode::kDeadlock) ++s.deadlock_aborts;
  if (reason.code() == StatusCode::kLockTimeout) ++s.timeout_aborts;
}

void MetricsCollector::RecordRetry(TxType type) {
  MutexLock guard(mu_);
  ++per_type_[static_cast<size_t>(type)].retries;
}

void MetricsCollector::RecordUndoFailure(TxType type) {
  MutexLock guard(mu_);
  ++per_type_[static_cast<size_t>(type)].undo_failures;
}

RunStats MetricsCollector::Snapshot() const {
  MutexLock guard(mu_);
  RunStats out;
  out.per_type = per_type_;
  // Live elapsed time: a mid-run poll must see real throughput. The
  // coordinator overwrites this with the authoritative elapsed time once
  // the run ends.
  if (started_) out.run_duration_ms = ToMillis(Now() - run_start_);
  return out;
}

}  // namespace xtc
