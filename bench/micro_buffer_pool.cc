// Microbenchmark: buffer-pool throughput vs. thread count, two rows.
//
// Miss overlap: a pool much smaller than the working set and non-zero
// simulated I/O latency — the configuration where the old
// single-global-mutex pool serialized every page read and throughput
// stayed flat regardless of thread count. With the frame-state machine
// the per-page latencies overlap, so miss throughput scales near-linearly
// until the device model (io_latency_us per access) saturates.
//
// Resident hits: a working set that fits the pool, a third of the fetches
// on one hot page (the way every tree descent hits the root). Nothing is
// read after warm-up, so the row measures the hit path alone: a fetch
// and a clean unpin, which take no pool-wide latch.
//
//   ./bench/micro_buffer_pool           full run
//   ./bench/micro_buffer_pool --json    machine-readable results
//                                       (committed in BENCH_buffer_pool.json)
//   ./bench/micro_buffer_pool --smoke   quick CI run; exits non-zero if
//                                       8-thread miss scaling < 2x, no I/O
//                                       overlap was observed, or a
//                                       resident-hit fetch missed

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"

namespace xtc {
namespace {

struct PoolRun {
  double fetches_per_sec = 0.0;
  uint64_t misses = 0;
  BufferPoolStats io;
  int failures = 0;
};

/// Runs `threads` workers of `ops_per_thread` fetches each. `pick` maps a
/// worker's LCG state to a page id; a quarter of the fetches dirty their
/// page when `dirty_some` is set. `warm` fetches every page once first.
template <typename Pick>
PoolRun RunThreads(int threads, int ops_per_thread, uint32_t pool_pages,
                   uint32_t working_set, uint32_t io_latency_us,
                   bool dirty_some, bool warm, Pick pick) {
  StorageOptions options;
  options.buffer_pool_pages = pool_pages;
  options.io_latency_us = io_latency_us;
  PageFile file(options);
  for (uint32_t i = 0; i < working_set; ++i) file.Allocate();
  BufferManager bm(&file, options);
  for (uint32_t i = 0; warm && i < working_set; ++i) {
    (void)bm.Fetch(static_cast<PageId>(i) + 1);
  }
  const uint64_t misses_before = bm.misses();

  std::atomic<int> failures{0};
  // Workers start together: staggered thread start-up would let the first
  // worker run much of its share alone and hide any contention.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < ops_per_thread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        auto g = bm.Fetch(pick(state));
        if (!g.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (dirty_some && (state & 3) == 0) {
          // The replacement scan then issues (overlapped) eviction
          // write-backs as well.
          g->page()->data()[0] = static_cast<uint8_t>(state);
          g->MarkDirty();
        }
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PoolRun run;
  run.fetches_per_sec =
      secs > 0 ? static_cast<double>(threads) * ops_per_thread / secs : 0.0;
  run.misses = bm.misses() - misses_before;
  run.io = bm.io_stats();
  run.failures = failures.load();
  return run;
}

struct Row {
  int threads;
  PoolRun run;
  double scaling;
};

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  using namespace xtc;
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json]\n", argv[0]);
      return 2;
    }
  }
  const int miss_ops = smoke ? 300 : 2000;
  const uint32_t kPool = 64;
  const uint32_t kWorkingSet = 512;
  const uint32_t kLatencyUs = 100;
  const int hit_ops = smoke ? 50000 : 2000000;
  const uint32_t kHitPool = 256;
  const uint32_t kHitWorkingSet = 192;
  const PageId kHotPage = 1;

  std::vector<Row> miss_rows;
  for (int threads : {1, 2, 4, 8}) {
    PoolRun run = RunThreads(
        threads, miss_ops, kPool, kWorkingSet, kLatencyUs,
        /*dirty_some=*/true, /*warm=*/false, [&](uint64_t state) {
          // Spread over the working set: nearly every fetch misses.
          return static_cast<PageId>((state >> 33) % kWorkingSet) + 1;
        });
    const double base = miss_rows.empty() ? run.fetches_per_sec
                                          : miss_rows[0].run.fetches_per_sec;
    miss_rows.push_back(
        {threads, run, base > 0 ? run.fetches_per_sec / base : 0.0});
  }
  std::vector<Row> hit_rows;
  for (int threads : {1, 2, 4}) {
    PoolRun run = RunThreads(
        threads, hit_ops, kHitPool, kHitWorkingSet, /*io_latency_us=*/0,
        /*dirty_some=*/false, /*warm=*/true, [&](uint64_t state) {
          const uint64_t r = state >> 33;
          return r % 3 == 0 ? kHotPage
                            : static_cast<PageId>(r % kHitWorkingSet) + 1;
        });
    const double base = hit_rows.empty() ? run.fetches_per_sec
                                         : hit_rows[0].run.fetches_per_sec;
    hit_rows.push_back(
        {threads, run, base > 0 ? run.fetches_per_sec / base : 0.0});
  }

  if (json) {
    std::printf(
        "{\n  \"benchmark\": \"micro_buffer_pool\",\n  \"miss_overlap\": "
        "{\"pool_pages\": %u, \"working_set\": %u, \"io_latency_us\": %u, "
        "\"ops_per_thread\": %d, \"rows\": [\n",
        kPool, kWorkingSet, kLatencyUs, miss_ops);
    for (size_t i = 0; i < miss_rows.size(); ++i) {
      const Row& r = miss_rows[i];
      std::printf(
          "    {\"threads\": %d, \"fetches_per_sec\": %.0f, \"misses\": "
          "%llu, \"scaling\": %.2f, \"io_in_flight_hwm\": %llu, "
          "\"coalesced\": %llu, \"writebacks\": %llu}%s\n",
          r.threads, r.run.fetches_per_sec,
          static_cast<unsigned long long>(r.run.misses), r.scaling,
          static_cast<unsigned long long>(r.run.io.io_in_flight_hwm),
          static_cast<unsigned long long>(r.run.io.coalesced_fetches),
          static_cast<unsigned long long>(r.run.io.eviction_writebacks),
          i + 1 < miss_rows.size() ? "," : "");
    }
    std::printf(
        "  ]},\n  \"resident_hits\": {\"pool_pages\": %u, \"working_set\": "
        "%u, \"hot_page_share\": 0.33, \"ops_per_thread\": %d, \"rows\": [\n",
        kHitPool, kHitWorkingSet, hit_ops);
    for (size_t i = 0; i < hit_rows.size(); ++i) {
      const Row& r = hit_rows[i];
      std::printf("    {\"threads\": %d, \"hits_per_sec\": %.0f, \"scaling\": "
                  "%.2f, \"misses\": %llu}%s\n",
                  r.threads, r.run.fetches_per_sec, r.scaling,
                  static_cast<unsigned long long>(r.run.misses),
                  i + 1 < hit_rows.size() ? "," : "");
    }
    std::printf("  ]}\n}\n");
  } else {
    std::printf("# micro_buffer_pool%s\n", smoke ? " (smoke)" : "");
    std::printf("# misses: pool %u pages, working set %u pages, io latency "
                "%u us\n",
                kPool, kWorkingSet, kLatencyUs);
    std::printf("%8s %14s %10s %8s %6s %10s %11s\n", "threads", "fetches/s",
                "misses", "scaling", "hwm", "coalesced", "writebacks");
    for (const Row& r : miss_rows) {
      std::printf("%8d %14.0f %10llu %7.2fx %6llu %10llu %11llu\n",
                  r.threads, r.run.fetches_per_sec,
                  static_cast<unsigned long long>(r.run.misses), r.scaling,
                  static_cast<unsigned long long>(r.run.io.io_in_flight_hwm),
                  static_cast<unsigned long long>(r.run.io.coalesced_fetches),
                  static_cast<unsigned long long>(
                      r.run.io.eviction_writebacks));
    }
    std::printf("# resident hits: pool %u pages, working set %u pages, a "
                "third of the fetches on one hot page\n",
                kHitPool, kHitWorkingSet);
    std::printf("%8s %14s %8s %10s\n", "threads", "hits/s", "scaling",
                "misses");
    for (const Row& r : hit_rows) {
      std::printf("%8d %14.0f %7.2fx %10llu\n", r.threads,
                  r.run.fetches_per_sec, r.scaling,
                  static_cast<unsigned long long>(r.run.misses));
    }
  }

  int total_failures = 0;
  for (const Row& r : miss_rows) total_failures += r.run.failures;
  for (const Row& r : hit_rows) total_failures += r.run.failures;
  if (total_failures > 0) {
    std::fprintf(stderr, "FAIL: %d fetches returned errors\n",
                 total_failures);
    return 1;
  }
  for (const Row& r : hit_rows) {
    if (r.run.misses != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu misses at %d threads on a working set that "
                   "fits the pool\n",
                   static_cast<unsigned long long>(r.run.misses), r.threads);
      return 1;
    }
  }
  const Row& last = miss_rows.back();
  if (smoke && (last.scaling < 2.0 || last.run.io.io_in_flight_hwm < 2)) {
    std::fprintf(stderr,
                 "FAIL: no I/O overlap (8-thread scaling %.2fx, in-flight "
                 "hwm %llu) — the pool is serializing simulated disk I/O\n",
                 last.scaling,
                 static_cast<unsigned long long>(last.run.io.io_in_flight_hwm));
    return 1;
  }
  return 0;
}
