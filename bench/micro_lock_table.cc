// Microbenchmark: the ancestor-path re-lock workload — the lock-layer
// hot path every DOM operation pays. Each worker repeatedly NodeReads a
// small set of leaves under one deep shared path, so after the first
// pass every request asks for an intention/read mode the transaction
// already holds. Those requests are served from the transaction's own
// tx-private cache shard; only a miss takes a resource-shard round trip
// on shards all workers contend on, where the holder scan is O(active
// transactions).
//
// A population of parked reader transactions holds intention locks on
// the whole path for the duration of the run, the way every concurrent
// client in the paper's CLUSTER workloads keeps IR/NR on the document's
// upper levels. That makes a miss pay what it pays in a loaded server —
// latch, map probe, and a holder-list scan past every parked client —
// while a hit costs the same tiny constant regardless of load.
//
//   ./bench/micro_lock_table           full run (depth sweep)
//   ./bench/micro_lock_table --smoke   quick CI run; exits non-zero if the
//                                      cache hit rate at lock depth >= 8
//                                      falls under 90% or any request
//                                      fails
//   ./bench/micro_lock_table --json    machine-readable results

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "protocols/protocol_registry.h"

namespace xtc {
namespace {

constexpr int kLeaves = 16;
constexpr int kThreads = 8;
/// Parked reader transactions modelling the paper's concurrent client
/// population: each holds IR on every ancestor and NR on one leaf until
/// the run ends, so a re-lock that misses the cache scans past all of
/// them.
constexpr int kHolderTxs = 384;

struct CacheRun {
  double ops_per_sec = 0.0;
  LockTableStats stats;
  int failures = 0;
};

CacheRun RunPathWorkload(int depth, int ops_per_thread) {
  auto protocol = CreateProtocol("taDOM3+");
  LockManager lm(protocol.get());

  // One shared chain 1.3.3...3 down to level depth-1; the leaves are
  // siblings at level `depth`. Every NodeRead intention-locks the whole
  // chain, so all workers re-traverse the same ancestor resources.
  std::vector<uint32_t> divisions{1};
  while (static_cast<int>(divisions.size()) < depth - 1) {
    divisions.push_back(3);
  }
  const Splid parent = *Splid::FromDivisions(divisions);
  std::vector<Splid> leaves;
  leaves.reserve(kLeaves);
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(parent.Child(static_cast<uint32_t>(2 * i + 3)));
  }

  // Park the holder population before the clock starts. The holders go
  // through the normal manager path (they are ordinary readers), then
  // simply never release until the timed section is over.
  std::vector<TxLockView> holders;
  holders.reserve(kHolderTxs);
  for (int h = 0; h < kHolderTxs; ++h) {
    holders.push_back(TxLockView{static_cast<uint64_t>(h) + 1000,
                                 IsolationLevel::kRepeatable, kMaxLockDepth});
    Status st =
        lm.NodeRead(holders.back(), leaves[static_cast<size_t>(h) % kLeaves]);
    if (!st.ok()) {
      std::fprintf(stderr, "holder setup lock failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }

  std::vector<int> failures(kThreads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&lm, &leaves, &failures, ops_per_thread, t] {
      TxLockView view{static_cast<uint64_t>(t) + 1,
                      IsolationLevel::kRepeatable, kMaxLockDepth};
      for (int i = 0; i < ops_per_thread; ++i) {
        Status st = lm.NodeRead(view, leaves[static_cast<size_t>(i) % kLeaves]);
        if (!st.ok()) ++failures[static_cast<size_t>(t)];
      }
      lm.ReleaseAll(view);
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (auto& h : holders) lm.ReleaseAll(h);

  CacheRun run;
  run.ops_per_sec =
      secs > 0 ? static_cast<double>(kThreads) * ops_per_thread / secs : 0.0;
  run.stats = protocol->table().GetStats();
  for (int f : failures) run.failures += f;
  return run;
}

double HitRate(const LockTableStats& s) {
  const uint64_t total = s.cache_hits + s.cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(s.cache_hits) /
                          static_cast<double>(total);
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  using namespace xtc;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const int ops = smoke ? 4000 : 20000;

  if (!json) {
    std::printf("# micro_lock_table — ancestor-path re-lock workload\n");
    std::printf(
        "# taDOM3+, %d threads, %d leaves, %d parked holder txs, "
        "%d NodeReads/thread%s\n",
        kThreads, kLeaves, kHolderTxs, ops, smoke ? " (smoke)" : "");
    std::printf("%6s %14s %9s\n", "depth", "ops/s", "hit rate");
  }

  struct Row {
    int depth;
    double ops_per_sec, hit_rate;
  };
  std::vector<Row> rows;
  int total_failures = 0;
  for (int depth : {2, 4, 8, 12}) {
    CacheRun run = RunPathWorkload(depth, ops);
    total_failures += run.failures;
    rows.push_back({depth, run.ops_per_sec, HitRate(run.stats)});
    if (!json) {
      std::printf("%6d %14.0f %8.1f%%\n", depth, run.ops_per_sec,
                  100.0 * HitRate(run.stats));
    }
  }

  if (json) {
    std::printf("{\n  \"benchmark\": \"micro_lock_table ancestor-path "
                "re-lock\",\n  \"protocol\": \"taDOM3+\",\n  \"threads\": "
                "%d,\n  \"leaves\": %d,\n  \"holder_txs\": %d,\n  "
                "\"ops_per_thread\": %d,\n  \"rows\": [\n",
                kThreads, kLeaves, kHolderTxs, ops);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"lock_depth\": %d, \"ops_per_sec\": %.0f, "
                  "\"cache_hit_rate\": %.4f}%s\n",
                  r.depth, r.ops_per_sec, r.hit_rate,
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }

  if (total_failures > 0) {
    std::fprintf(stderr, "FAIL: %d lock requests returned errors\n",
                 total_failures);
    return 1;
  }
  if (smoke) {
    // A hit never touches a resource shard, so the hit rate is the share
    // of path re-locks taken off the shards.
    for (const Row& r : rows) {
      if (r.depth >= 8 && r.hit_rate < 0.9) {
        std::fprintf(stderr,
                     "FAIL: cache hit rate %.1f%% at lock depth %d (< 90%%) "
                     "— the tx-private cache is not taking the path "
                     "re-locks off the resource shards\n",
                     100.0 * r.hit_rate, r.depth);
        return 1;
      }
    }
  }
  return 0;
}
