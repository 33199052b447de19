// Unit tests for the page file and buffer manager.

#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

// Counts this thread's heap allocations, so a test can assert that the
// resident-hit path makes none.
namespace {
thread_local size_t allocations = 0;
}  // namespace

void* operator new(size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined replacement new with these frees and warns of a
// mismatch that is not there: both sides are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace xtc {
namespace {

StorageOptions SmallPool() {
  StorageOptions o;
  o.buffer_pool_pages = 4;
  return o;
}

TEST(PageFileTest, AllocateReadWrite) {
  StorageOptions options;
  PageFile file(options);
  PageId a = file.Allocate();
  PageId b = file.Allocate();
  EXPECT_NE(a, b);
  Page p(options.page_size);
  std::memcpy(p.data(), "hello", 5);
  ASSERT_TRUE(file.Write(a, p).ok());
  Page q(options.page_size);
  ASSERT_TRUE(file.Read(a, &q).ok());
  EXPECT_EQ(std::memcmp(q.data(), "hello", 5), 0);
  EXPECT_FALSE(file.Read(999, &q).ok());
}

TEST(PageFileTest, FreeListReusesIds) {
  PageFile file(StorageOptions{});
  PageId a = file.Allocate();
  file.Free(a);
  PageId b = file.Allocate();
  EXPECT_EQ(a, b);
  // Reused pages come back zeroed.
  Page p(kDefaultPageSize);
  ASSERT_TRUE(file.Read(b, &p).ok());
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(p.data()[i], 0);
}

TEST(BufferManagerTest, FetchCachesPages) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  auto g = bm.New();
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  std::memcpy(g->page()->data(), "cached", 6);
  g->MarkDirty();
  g->Release();

  uint64_t misses_before = bm.misses();
  auto g2 = bm.Fetch(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(std::memcmp(g2->page()->data(), "cached", 6), 0);
  EXPECT_EQ(bm.misses(), misses_before);  // hit
}

TEST(BufferManagerTest, ResidentFetchAndCleanUnpinAllocateNothing) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  PageId id;
  {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    id = g->id();
  }
  const uint64_t misses = bm.misses();
  const size_t before = allocations;
  for (int i = 0; i < 100; ++i) {
    auto g = bm.Fetch(id);
    if (!g.ok()) break;
  }
  const size_t allocated = allocations - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(bm.misses(), misses);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST(BufferManagerTest, EvictionWritesBackDirtyPages) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  PageId first;
  {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    first = g->id();
    std::memcpy(g->page()->data(), "persist me", 10);
    g->MarkDirty();
  }
  // Evict by touching more pages than the pool holds.
  for (int i = 0; i < 10; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
  }
  auto g = bm.Fetch(first);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(std::memcmp(g->page()->data(), "persist me", 10), 0);
  EXPECT_GT(bm.misses(), 0u);
}

TEST(BufferManagerTest, PoolExhaustionWhenAllPinned) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  std::vector<PageGuard> pins;
  for (uint32_t i = 0; i < options.buffer_pool_pages; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  auto overflow = bm.New();
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  pins.pop_back();  // releasing one pin makes room
  auto retry = bm.New();
  EXPECT_TRUE(retry.ok());
}

TEST(BufferManagerTest, FlushAllPersistsEverything) {
  StorageOptions options;
  options.buffer_pool_pages = 16;
  PageFile file(options);
  BufferManager bm(&file, options);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    g->page()->data()[0] = static_cast<uint8_t>(0xA0 + i);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  Page p(options.page_size);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(file.Read(ids[static_cast<size_t>(i)], &p).ok());
    EXPECT_EQ(p.data()[0], 0xA0 + i);
  }
}

TEST(BufferManagerTest, ConcurrentFetchesAreSafe) {
  StorageOptions options;
  options.buffer_pool_pages = 64;
  PageFile file(options);
  BufferManager bm(&file, options);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    g->page()->data()[0] = static_cast<uint8_t>(i);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 500; ++round) {
        PageId id = ids[static_cast<size_t>((t * 7 + round) % 32)];
        auto g = bm.Fetch(id);
        if (!g.ok() ||
            g->page()->data()[0] !=
                static_cast<uint8_t>((t * 7 + round) % 32)) {
          ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(PageFileTest, DoubleFreeIsIgnored) {
  PageFile file(StorageOptions{});
  PageId a = file.Allocate();
  PageId b = file.Allocate();
  file.Free(a);
  file.Free(a);  // regression: used to enqueue `a` on the free list twice
  PageId c = file.Allocate();
  PageId d = file.Allocate();
  EXPECT_EQ(c, a);  // the one legitimate reuse
  EXPECT_NE(d, a);  // the duplicate entry must not hand `a` out again
  EXPECT_NE(d, b);
}

TEST(BufferManagerTest, ExhaustedNewDoesNotLeakFilePages) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  std::vector<PageGuard> pins;
  for (uint32_t i = 0; i < options.buffer_pool_pages; ++i) {
    auto g = bm.New();
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  // Regression: New() used to call file_->Allocate() before securing a
  // frame, so every failed attempt grew the page file forever.
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_FALSE(bm.New().ok());
  }
  EXPECT_EQ(file.num_pages(), options.buffer_pool_pages);
}

TEST(BufferManagerDeathTest, UnpinOfUncachedPageFailsLoudly) {
  // The guards in Unpin/Free used to be assert()s that vanish under
  // NDEBUG, after which Unpin dereferenced table_.end(). They must fail
  // loudly in every build.
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  Page stray(options.page_size);
  EXPECT_DEATH(
      { PageGuard bogus(&bm, 999, &stray); },
      "XTC_CHECK failed.*Unpin of an uncached page");
}

TEST(BufferManagerDeathTest, FreeOfPinnedPageFailsLoudly) {
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  auto g = bm.New();
  ASSERT_TRUE(g.ok());
  EXPECT_DEATH(bm.Free(g->id()), "XTC_CHECK failed.*Free of a pinned page");
}

TEST(BufferManagerDeathTest, UnpinWithoutAPinFailsLoudly) {
  // A clean unpin is a bare atomic decrement; it must still refuse to
  // drive the pin count below zero.
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  auto g = bm.New();
  ASSERT_TRUE(g.ok());
  const PageId id = g->id();
  Page* page = g->page();
  g->Release();
  EXPECT_DEATH(
      { PageGuard extra(&bm, id, page); },
      "XTC_CHECK failed.*Unpin without a pin");
}

TEST(BufferManagerTest, FreedPageLeavesTheCaptureSet) {
  // The WAL logs an after-image of every captured page; a page freed
  // inside the scope is gone from the pool and must not be among them.
  StorageOptions options = SmallPool();
  PageFile file(options);
  BufferManager bm(&file, options);
  bm.BeginCapture();
  PageId kept = kInvalidPageId;
  PageId freed = kInvalidPageId;
  {
    auto a = bm.New();
    auto b = bm.New();
    ASSERT_TRUE(a.ok() && b.ok());
    kept = a->id();
    freed = b->id();
  }
  bm.Free(freed);
  EXPECT_EQ(bm.CapturedPages(), std::vector<PageId>{kept});
  bm.EndCapture();
}

TEST(BufferManagerTest, ConcurrentMissesOnSamePageCoalesceToOneRead) {
  StorageOptions options = SmallPool();
  options.io_latency_us = 200;  // widen the in-flight window
  PageFile file(options);
  PageId id = file.Allocate();
  BufferManager bm(&file, options);
  ASSERT_EQ(file.num_reads(), 0u);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      auto g = bm.Fetch(id);
      if (!g.ok()) ++errors;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // All four fetches missed or coalesced; exactly one read hit the file.
  EXPECT_EQ(file.num_reads(), 1u);
  EXPECT_EQ(bm.FramesInIo(), 0u);
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST(PageFileTest, SimulatedLatencySlowsAccess) {
  StorageOptions slow;
  slow.io_latency_us = 200;
  PageFile file(slow);
  PageId id = file.Allocate();
  Page p(slow.page_size);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(file.Read(id, &p).ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            10 * 200);
}

}  // namespace
}  // namespace xtc
