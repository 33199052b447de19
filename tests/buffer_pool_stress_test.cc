// Multi-threaded buffer-pool stress tests for the frame-state machine:
// overlapped simulated disk I/O, same-page miss coalescing, chaos-mode
// interaction with io.read/io.write faults during concurrent eviction, and
// latch-free hits racing CLOCK eviction, FlushAll and Free.
//
// The central recovery invariant (PR 1) re-checked here under load: a
// dirty frame whose write-back fails is never evicted, so the latest
// value written to a page is always observable through Fetch — from the
// still-cached frame if the write-back failed, from the file if the
// eviction went through.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"
#include "util/fault_injector.h"

namespace xtc {
namespace {

TEST(BufferPoolStressTest, MissesOverlapTheirSimulatedIo) {
  StorageOptions options;
  options.buffer_pool_pages = 16;
  options.io_latency_us = 100;
  PageFile file(options);
  const uint32_t kWorkingSet = 128;  // 8x the pool: nearly every fetch misses
  for (uint32_t i = 0; i < kWorkingSet; ++i) file.Allocate();
  BufferManager bm(&file, options);

  const int kThreads = 4;
  const int kOpsPerThread = 200;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageId id = static_cast<PageId>((state >> 33) % kWorkingSet) + 1;
        auto g = bm.Fetch(id);
        if (!g.ok()) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  BufferPoolStats io = bm.io_stats();
  // The whole point of the rework: page reads from different threads must
  // be in flight simultaneously (the old pool held the table latch across
  // PageFile::Read, pinning this at 1).
  EXPECT_GE(io.io_in_flight_hwm, 2u);
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST(BufferPoolStressTest, HammeredSharedPagesCoalesceReads) {
  StorageOptions options;
  options.buffer_pool_pages = 4;
  options.io_latency_us = 100;
  PageFile file(options);
  // More hot pages than frames, so pages keep getting evicted (clean) and
  // re-fetched by several threads at once.
  const uint32_t kHotPages = 8;
  for (uint32_t i = 0; i < kHotPages; ++i) file.Allocate();
  BufferManager bm(&file, options);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int round = 0; round < 100; ++round) {
        auto g = bm.Fetch(static_cast<PageId>(round % kHotPages) + 1);
        if (!g.ok()) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  BufferPoolStats io = bm.io_stats();
  // Threads walk the hot set in lockstep order, so same-page misses pile
  // up while the first miss's read is in flight; those must wait on the
  // in-flight read, not issue their own.
  EXPECT_GT(io.coalesced_fetches, 0u);
  // Every fetch resolves as a hit (including coalesced waiters, which pin
  // the frame once the shared read lands) or as a miss that issued
  // exactly one file read — never a double read.
  EXPECT_EQ(bm.hits() + bm.misses(), 400u);
  EXPECT_EQ(file.num_reads(), bm.misses());
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST(BufferPoolStressTest, ChaosEvictionNeverLosesCommittedWrites) {
  FaultInjector faults(1234);
  faults.Arm(fault_points::kIoWrite, {.probability = 0.3});
  faults.Arm(fault_points::kIoRead, {.probability = 0.1});

  StorageOptions options;
  options.buffer_pool_pages = 8;
  options.io_latency_us = 50;
  options.fault_injector = &faults;
  PageFile file(options);
  const int kThreads = 4;
  const uint32_t kPagesPerThread = 8;  // working set 4x the pool
  const uint32_t kTotalPages = kThreads * kPagesPerThread;
  for (uint32_t i = 0; i < kTotalPages; ++i) file.Allocate();
  BufferManager bm(&file, options);

  // Each thread owns a disjoint page range (tree-level latching plays
  // this role in the real stack) and remembers the last value it wrote.
  std::vector<uint8_t> last_written(kTotalPages, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x2545F4914F6CDD1Dull * static_cast<uint64_t>(t + 1);
      for (int round = 0; round < 150; ++round) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t slot = static_cast<uint32_t>(t) * kPagesPerThread +
                              static_cast<uint32_t>((state >> 33) %
                                                    kPagesPerThread);
        auto g = bm.Fetch(static_cast<PageId>(slot) + 1);
        if (!g.ok()) continue;  // injected io.read/buffer faults are fine
        const uint8_t value = static_cast<uint8_t>(round + 1);
        g->page()->data()[0] = value;
        g->MarkDirty();
        last_written[slot] = value;
      }
    });
  }
  for (auto& th : threads) th.join();

  // The run is over: frames must have settled despite injected write-back
  // failures racing concurrent eviction.
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
  BufferPoolStats io = bm.io_stats();
  EXPECT_GT(io.eviction_writebacks, 0u);
  EXPECT_GT(io.failed_writebacks, 0u);  // the 30% io.write rate must bite

  // A failed write-back keeps the frame cached and dirty, so the latest
  // committed value is always observable through the pool.
  faults.Disarm(fault_points::kIoWrite);
  faults.Disarm(fault_points::kIoRead);
  for (uint32_t slot = 0; slot < kTotalPages; ++slot) {
    if (last_written[slot] == 0) continue;
    auto g = bm.Fetch(static_cast<PageId>(slot) + 1);
    ASSERT_TRUE(g.ok()) << "slot " << slot;
    EXPECT_EQ(g->page()->data()[0], last_written[slot]) << "slot " << slot;
  }
  // And a fault-free flush persists everything to the file itself.
  ASSERT_TRUE(bm.FlushAll().ok());
  Page p(options.page_size);
  for (uint32_t slot = 0; slot < kTotalPages; ++slot) {
    if (last_written[slot] == 0) continue;
    ASSERT_TRUE(file.Read(static_cast<PageId>(slot) + 1, &p).ok());
    EXPECT_EQ(p.data()[0], last_written[slot]) << "slot " << slot;
  }
}

TEST(BufferPoolStressTest, ConcurrentNewAndFetchKeepPoolConsistent) {
  StorageOptions options;
  options.buffer_pool_pages = 8;
  PageFile file(options);
  BufferManager bm(&file, options);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<PageId> mine;
      for (int round = 0; round < 200; ++round) {
        if (mine.empty() || (round % 3) == 0) {
          auto g = bm.New();
          if (!g.ok()) continue;  // transient exhaustion is legal
          g->page()->data()[0] = static_cast<uint8_t>(t + 1);
          g->MarkDirty();
          mine.push_back(g->id());
        } else {
          PageId id = mine[static_cast<size_t>(round) % mine.size()];
          auto g = bm.Fetch(id);
          if (!g.ok() || g->page()->data()[0] != static_cast<uint8_t>(t + 1)) {
            ++errors;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST(BufferPoolStressTest, HitsRaceEvictionFlushAndFree) {
  // Resident hits pin under a partition latch only. Every way a frame can
  // leave kResident — CLOCK eviction (clean and dirty), FlushAll's
  // write-back, Free — must re-check the pin under that latch, so a page
  // never changes under a pin: while pinned, its bytes carry its own id.
  StorageOptions options;
  options.buffer_pool_pages = 16;
  options.io_latency_us = 20;
  PageFile file(options);
  BufferManager bm(&file, options);
  const size_t kShared = 24;  // 1.5x the pool: hits and evictions mix
  std::vector<PageId> shared;
  for (size_t i = 0; i < kShared; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    const PageId id = g->id();
    std::memcpy(g->page()->data(), &id, sizeof(id));
    g->MarkDirty();
    shared.push_back(id);
  }
  auto carries_own_id = [](const PageGuard& g) {
    PageId stored;
    std::memcpy(&stored, g.page()->data(), sizeof(stored));
    return stored == g.id();
  };

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> fetches{0};
  std::vector<std::thread> threads;
  // Four pinners: one or two pins held at a time, a third of the fetches
  // on one hot page (a tree root).
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < 3000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t r = state >> 33;
        const PageId a = r % 3 == 0 ? shared[0] : shared[r % kShared];
        auto ga = bm.Fetch(a);
        auto gb = bm.Fetch(shared[(r >> 8) % kShared]);
        fetches.fetch_add(2, std::memory_order_relaxed);
        if (!ga.ok() || !gb.ok() || !carries_own_id(*ga) ||
            !carries_own_id(*gb)) {
          ++errors;
        }
      }
    });
  }
  // A dirtier: bumps a counter past the id and marks the page dirty.
  threads.emplace_back([&]() {
    uint64_t state = 0x2545F4914F6CDD1Dull;
    while (!stop.load()) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      auto g = bm.Fetch(shared[(state >> 33) % kShared]);
      fetches.fetch_add(1, std::memory_order_relaxed);
      if (!g.ok() || !carries_own_id(*g)) {
        ++errors;
        continue;
      }
      ++g->page()->data()[sizeof(PageId)];
      g->MarkDirty();
    }
  });
  // A flusher: write-backs race the pins.
  threads.emplace_back([&]() {
    while (!stop.load()) {
      if (!bm.FlushAll().ok()) ++errors;
    }
  });
  // An allocator: News and Frees pages of its own, so frames keep being
  // unmapped and remapped in the partitions the pinners use.
  threads.emplace_back([&]() {
    std::vector<PageId> mine;
    while (!stop.load()) {
      if (mine.size() < 4) {
        auto g = bm.New();
        if (!g.ok()) {
          ++errors;
          continue;
        }
        const PageId id = g->id();
        std::memcpy(g->page()->data(), &id, sizeof(id));
        g->MarkDirty();
        mine.push_back(id);
      } else {
        {
          auto g = bm.Fetch(mine.front());
          fetches.fetch_add(1, std::memory_order_relaxed);
          if (!g.ok() || !carries_own_id(*g)) ++errors;
        }
        bm.Free(mine.front());
        mine.erase(mine.begin());
      }
    }
  });
  for (int t = 0; t < 4; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true);
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
  // Every fetch resolved as exactly one hit or one miss.
  EXPECT_EQ(bm.hits() + bm.misses(), fetches.load());
  EXPECT_GT(bm.io_stats().eviction_writebacks, 0u);
  ASSERT_TRUE(bm.FlushAll().ok());
  Page p(options.page_size);
  for (PageId id : shared) {
    ASSERT_TRUE(file.Read(id, &p).ok());
    PageId stored;
    std::memcpy(&stored, p.data(), sizeof(stored));
    EXPECT_EQ(stored, id);
  }
}

}  // namespace
}  // namespace xtc
