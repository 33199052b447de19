// Buffer manager: a fixed pool of page frames over the page file with
// CLOCK replacement, pin counting and dirty tracking.
//
// The paper relies on "reference locality in the B*-trees ... most of the
// referenced tree pages (at least in upper tree layers) are expected to
// reside in DB buffers" (§3.2); the pool makes that locality real so that
// protocols which force extra document traversals (the *-2PL group on
// subtree deletion) pay for the misses. It also makes a resident fetch the
// hottest path in every DOM call, so that path takes no pool-wide latch.
//
// Concurrency model. Two kinds of latch, always taken in this order:
//
//   mu_             the pool latch: free list, CLOCK hand, capture set, and
//                   each frame's dirty / rec_lsn / waiters fields. Misses,
//                   coalesced loads, victim scans and write-backs, New,
//                   Free, FlushAll and dirtying unpins run under it. It is
//                   NEVER held across PageFile I/O.
//   partition latch one per page-table partition (page id mod
//                   kPartitions); guards that partition's id -> frame map
//                   and its hit counter.
//
// A frame's id and state are written only with BOTH mu_ and the partition
// latch of the page it maps held, so either latch alone suffices to read
// them. pin_count is atomic and is raised only under the partition latch;
// a clean unpin lowers it with no latch at all, a dirtying unpin under mu_
// (so the dirty mark and rec_lsn land before the pin is gone). Every
// transition out of kResident (victim eviction, FlushAll, Free) takes the
// partition latch and re-checks pin_count == 0 there. Since a pin cannot
// be raised without that latch, the zero stays zero until the frame has
// left kResident, and a pin raised earlier is seen: a pinned frame never
// leaves kResident. The hit path is therefore one partition latch, a
// table lookup, an atomic increment and a reference-bit store; a clean
// unpin is one atomic decrement (the guard carries its frame index).
//
// Frame states:
//
//   kFree      not mapped to any page (on free_frames_ or claimed by a
//              fetch that is about to load into it)
//   kLoading   a miss is reading the page from the file; the frame is in
//              the page table so concurrent fetches of the same page
//              coalesce onto the one in-flight read by waiting on the
//              frame's cv
//   kResident  mapped and readable; pinnable
//   kEvicting  a dirty victim's write-back is in flight; the frame stays
//              in the page table so a concurrent fetch of the evictee waits
//              instead of double-caching, and the evictor re-validates
//              (waiters present => eviction is cancelled, the frame stays
//              resident) after the write returns
//
// A dirty frame whose write-back fails is never evicted: dropping it
// would lose committed data outside any transaction's undo reach. It
// returns to kResident, stays dirty, and victim scans move on.

#ifndef XTC_STORAGE_BUFFER_MANAGER_H_
#define XTC_STORAGE_BUFFER_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

class BufferManager;

/// RAII pin on a buffered page. Unpins (and marks dirty if requested) on
/// destruction. Movable, not copyable.
class PageGuard {
 public:
  /// Frame index of a guard built outside the pool; its unpin has to look
  /// the page up in the table.
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  PageGuard() = default;
  PageGuard(BufferManager* bm, PageId id, Page* page, size_t frame = kNoFrame)
      : bm_(bm), id_(id), page_(page), frame_(frame) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Marks the underlying frame dirty; it is written back on eviction or
  /// flush.
  void MarkDirty() { dirty_ = true; }

  void Release();

 private:
  BufferManager* bm_ = nullptr;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
  size_t frame_ = kNoFrame;
  bool dirty_ = false;
};

/// Hit/miss and I/O-overlap counters (all monotonically increasing over
/// the pool's lifetime; read with relaxed ordering, exact only at
/// quiescence).
struct BufferPoolStats {
  /// Fetches served from a resident frame / that had to load the page.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  /// High-water mark of page-file reads/writes in flight at once. 1 on a
  /// single-threaded workload; > 1 proves overlapped simulated disk I/O.
  uint64_t io_in_flight_hwm = 0;
  /// Fetches that found their page already being read by another thread
  /// and waited on that read instead of issuing a second one.
  uint64_t coalesced_fetches = 0;
  /// Dirty-victim write-backs issued by the replacement scan.
  uint64_t eviction_writebacks = 0;
  /// Write-backs that failed (injected or real I/O error); the frame
  /// stayed cached and dirty.
  uint64_t failed_writebacks = 0;
  /// Evictions cancelled because a fetch arrived for the victim while its
  /// write-back was in flight (the frame stayed resident, now clean).
  uint64_t cancelled_evictions = 0;

  /// The public names (util/stats.h; snapshot prefix "storage.").
  template <typename F>
  static void Fields(F&& f) {
    f("buffer_hits", &BufferPoolStats::buffer_hits);
    f("buffer_misses", &BufferPoolStats::buffer_misses);
    f("io_in_flight_hwm", &BufferPoolStats::io_in_flight_hwm);
    f("coalesced_fetches", &BufferPoolStats::coalesced_fetches);
    f("eviction_writebacks", &BufferPoolStats::eviction_writebacks);
    f("failed_writebacks", &BufferPoolStats::failed_writebacks);
    f("cancelled_evictions", &BufferPoolStats::cancelled_evictions);
  }
};

class BufferManager {
 public:
  BufferManager(PageFile* file, const StorageOptions& options);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Fetches (and pins) a page, reading it from the page file on a miss.
  /// Concurrent misses on the same page issue exactly one read.
  StatusOr<PageGuard> Fetch(PageId id) XTC_EXCLUDES(mu_);

  /// Allocates a fresh page in the file and pins it (already zeroed). The
  /// file page is only allocated once a frame is secured, so pool
  /// exhaustion does not leak file pages.
  StatusOr<PageGuard> New() XTC_EXCLUDES(mu_);

  /// Drops a page: discards the frame and frees the file page. Waits for
  /// any in-flight load/write-back of the page to settle first.
  void Free(PageId id) XTC_EXCLUDES(mu_);

  /// Writes back all dirty unpinned frames. Frames pinned at flush time
  /// are skipped (their guard holder may still be mutating the page);
  /// they are written back on eviction or a later flush. At quiescence
  /// (zero pins) this persists everything.
  Status FlushAll() XTC_EXCLUDES(mu_);

  uint64_t hits() const;
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Every counter above, hits and misses included.
  BufferPoolStats io_stats() const;

  /// Frames currently pinned (must be 0 when the system is quiescent —
  /// every PageGuard unpins on destruction).
  size_t PinnedFrames() const XTC_EXCLUDES(mu_);

  /// Frames currently mid-I/O (kLoading or kEvicting). Must be 0 at
  /// quiescence: no fetch or victim scan may leave a frame stuck in a
  /// transitional state.
  size_t FramesInIo() const XTC_EXCLUDES(mu_);

  // --- write-ahead-log support (DESIGN.md §6) ---

  /// Attaches the log. Must happen at setup, before concurrent use. From
  /// then on WritePage forces the log durable through the page's
  /// page_lsn before the bytes reach the file (WAL-before-data), frames
  /// track the recovery LSN of their first dirtying, and the capture
  /// mechanism below protects mid-operation pages.
  void AttachWal(WalBackend* wal) { wal_ = wal; }
  WalBackend* wal() const { return wal_; }

  /// Opens a capture scope (one at a time; Document serializes them
  /// under its exclusive latch). Until EndCapture, every page dirtied or
  /// created is recorded AND becomes ineligible for eviction/flush: a
  /// mid-operation page carries a stale page_lsn, so letting it reach
  /// the file would write bytes whose covering log record does not exist
  /// yet — a WAL-before-data violation redo could never repair.
  void BeginCapture() XTC_EXCLUDES(mu_);
  /// The pages captured so far (still protected until EndCapture, so the
  /// caller can stamp LSNs and copy after-images from resident frames).
  std::vector<PageId> CapturedPages() const XTC_EXCLUDES(mu_);
  void EndCapture() XTC_EXCLUDES(mu_);

  /// Dirty-page table for fuzzy checkpoints: (page id, recovery LSN of
  /// its first dirtying since it was last clean).
  std::vector<std::pair<PageId, uint64_t>> DirtyPageTable() const
      XTC_EXCLUDES(mu_);

 private:
  friend class PageGuard;

  enum class FrameState : uint8_t { kFree, kLoading, kResident, kEvicting };

  /// Page-table partitions. A constant: enough that threads fetching
  /// different pages rarely share a latch.
  static constexpr size_t kPartitions = 64;

  // Cache-line aligned so pins on neighbouring frames do not contend.
  struct alignas(64) Frame {
    // Written under mu_ AND the latch of the mapped page's partition.
    PageId id = kInvalidPageId;
    FrameState state = FrameState::kFree;
    // Allocated under mu_ while the frame is unmapped; stable afterwards.
    std::unique_ptr<Page> page;
    std::atomic<int> pin_count{0};
    /// CLOCK reference bit: set by every pin, cleared by the sweep.
    std::atomic<bool> referenced{false};
    // The rest is guarded by mu_.
    /// Fetch/Free calls blocked on this frame's load or write-back.
    int waiters = 0;
    bool dirty = false;
    /// Log watermark when the frame last went clean -> dirty; a redo
    /// scan starting there cannot miss an update to this page. 0 while
    /// clean or when no WAL is attached.
    uint64_t rec_lsn = 0;
    /// Signalled on every state transition out of kLoading/kEvicting.
    std::condition_variable cv;
  };

  struct alignas(64) Partition {
    Mutex mu;
    std::unordered_map<PageId, size_t> table XTC_GUARDED_BY(mu);
    /// Bumped only under mu (a plain load/store, no locked RMW); summed
    /// latch-free by hits().
    std::atomic<uint64_t> hits{0};
  };

  Partition& PartitionOf(PageId id) { return partitions_[id % kPartitions]; }

  /// The frame mapping `id`, or PageGuard::kNoFrame.
  size_t FrameOf(PageId id);

  void Unpin(size_t frame, PageId id, bool dirty) XTC_EXCLUDES(mu_);

  /// The miss path of Fetch: coalesces onto in-flight loads, waits out
  /// write-backs, and reads the page into a victim frame.
  StatusOr<PageGuard> FetchSlow(PageId id) XTC_EXCLUDES(mu_);

  /// Returns the index of a frame reserved for the caller (kFree, out of
  /// the page table and free_frames_), or -1 if every frame is pinned or
  /// mid-I/O. May release and reacquire mu_ to write back a dirty victim
  /// — callers must re-validate table state afterwards.
  int FindVictim() XTC_REQUIRES(mu_);

  /// Pins the kResident frame `idx`, which maps `id` in partition `p`.
  PageGuard PinResident(Partition& p, PageId id, size_t idx)
      XTC_REQUIRES(p.mu);

  /// Maps the claimed frame `idx` to `id` in state `state`, pinned
  /// `pins` times (both latches held: the frame becomes visible to hits).
  void MapFrame(Partition& p, PageId id, size_t idx, FrameState state,
                int pins) XTC_REQUIRES(mu_, p.mu);

  /// Unmaps frame `idx` (the page leaves the table) and marks it kFree
  /// and clean: every frame a victim scan or the free list hands out is.
  void UnmapFrame(Partition& p, size_t idx) XTC_REQUIRES(mu_, p.mu);

  // All page-file I/O funnels through these two helpers. XTC_EXCLUDES
  // turns the pool's core invariant — the latch is never held across
  // I/O — into a compile-time contract: calling either with mu_ held is
  // an error under -Wthread-safety (see docs/static_analysis.md).
  Status ReadPage(PageId id, Page* page) XTC_EXCLUDES(mu_);
  Status WritePage(PageId id, const Page& page) XTC_EXCLUDES(mu_);

  /// Tracks one page-file I/O for the in-flight high-water mark.
  class ScopedIo {
   public:
    explicit ScopedIo(BufferManager* bm) : bm_(bm) {
      uint64_t now = bm_->io_in_flight_.fetch_add(1) + 1;
      uint64_t hwm = bm_->io_in_flight_hwm_.load(std::memory_order_relaxed);
      while (now > hwm &&
             !bm_->io_in_flight_hwm_.compare_exchange_weak(hwm, now)) {
      }
    }
    ~ScopedIo() { bm_->io_in_flight_.fetch_sub(1); }

   private:
    BufferManager* bm_;
  };

  PageFile* file_;
  StorageOptions options_;
  /// Set once at setup (AttachWal) before concurrent use.
  WalBackend* wal_ = nullptr;
  mutable Mutex mu_;
  bool capture_active_ XTC_GUARDED_BY(mu_) = false;
  std::unordered_set<PageId> capture_ XTC_GUARDED_BY(mu_);
  // Sized once at construction; Frame lists the guard of each field.
  std::vector<Frame> frames_;
  std::array<Partition, kPartitions> partitions_;
  std::vector<size_t> free_frames_ XTC_GUARDED_BY(mu_);
  size_t clock_hand_ XTC_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> io_in_flight_{0};
  std::atomic<uint64_t> io_in_flight_hwm_{0};
  std::atomic<uint64_t> coalesced_fetches_{0};
  std::atomic<uint64_t> eviction_writebacks_{0};
  std::atomic<uint64_t> failed_writebacks_{0};
  std::atomic<uint64_t> cancelled_evictions_{0};
};

}  // namespace xtc

#endif  // XTC_STORAGE_BUFFER_MANAGER_H_
