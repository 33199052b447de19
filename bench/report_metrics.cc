// Supporting report: the paper's §4.1 measurement catalogue for one
// CLUSTER1 run — committed/aborted per type, avg/min/max transaction
// durations, deadlock counts with classification — then every other
// counter of the run (RunStats::Snapshot, docs/metrics.md), plus storage
// occupancy of the document tree (§3.1).
//
//   ./bench/report_metrics [protocol] [--replicated]  (default taDOM3+)
//
// --replicated attaches a log-shipping follower (DESIGN.md §7) for the
// run, so the repl.* counters are live. It is the pair campaign's
// observer: a seed whose pair rotation names crash.apply (seed % 5 == 4)
// kills and restarts the follower once.

#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "node/document.h"
#include "fuzz/campaign.h"
#include "tamix/bib_generator.h"
#include "util/stats.h"

using namespace xtc;
using namespace xtc::bench;

int main(int argc, char** argv) {
  const char* protocol = "taDOM3+";
  bool replicated = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicated") == 0) {
      replicated = true;
    } else {
      protocol = argv[i];
    }
  }
  PrintHeader("Metrics report", "per-type metrics for one CLUSTER1 run");

  RunConfig config = Cluster1Config();
  config.protocol = protocol;
  config.isolation = IsolationLevel::kRepeatable;
  config.lock_depth = 5;
  PairReplicationObserver observer(config.seed);
  if (replicated) {
    config.wal = WalMode::kEnabled;
    config.replication = &observer;
  }
  RunStats stats = MustRun(config);

  std::printf("\nprotocol %s, isolation repeatable, lock depth %d\n\n",
              protocol, config.lock_depth);
  std::printf("%-18s %10s %9s %10s %8s %9s %9s %9s %9s %9s\n", "type",
              "committed", "aborted", "deadlocks", "retries", "avg ms",
              "p50 ms", "p95 ms", "p99 ms", "max ms");
  for (int t = 0; t < kNumTxTypes; ++t) {
    const TxTypeStats& s = stats.per_type[t];
    if (s.committed == 0 && s.aborted == 0) continue;
    std::printf(
        "%-18s %10llu %9llu %10llu %8llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
        std::string(TxTypeName(static_cast<TxType>(t))).c_str(),
        static_cast<unsigned long long>(s.committed),
        static_cast<unsigned long long>(s.aborted),
        static_cast<unsigned long long>(s.deadlock_aborts),
        static_cast<unsigned long long>(s.retries), s.avg_duration_ms(),
        s.p50_ms(), s.p95_ms(), s.p99_ms(), s.max_duration_us / 1000.0);
  }
  std::printf("%-18s %10llu %9llu %10s %8s %9s %9.1f %9.1f %9.1f %9s\n",
              "all types",
              static_cast<unsigned long long>(stats.total_committed()),
              static_cast<unsigned long long>(stats.total_aborted()), "", "",
              "", stats.p50_ms(), stats.p95_ms(), stats.p99_ms(), "");
  // Every counter of the run, by its docs/metrics.md name.
  std::printf("\n");
  PrintStatsText(stdout, stats.Snapshot());

  // Storage occupancy of a fresh bib document (paper §3.1: > 96 % on
  // their container pages; a B+-tree with half-splits sits lower).
  Document doc;
  if (GenerateBib(&doc, config.bib).ok()) {
    auto occ = doc.MeasureOccupancy();
    std::printf(
        "\ndocument store: %llu leaf + %llu inner pages, occupancy %.1f%%\n",
        static_cast<unsigned long long>(occ.leaf_pages),
        static_cast<unsigned long long>(occ.inner_pages),
        100.0 * occ.ratio());
  }
  return 0;
}
