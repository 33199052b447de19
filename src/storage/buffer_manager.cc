#include "storage/buffer_manager.h"

#include "util/check.h"
#include "util/fault_injector.h"

namespace xtc {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    id_ = other.id_;
    page_ = other.page_;
    frame_ = other.frame_;
    dirty_ = other.dirty_;
    other.bm_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPageId;
    other.frame_ = kNoFrame;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (bm_ != nullptr && page_ != nullptr) {
    bm_->Unpin(frame_, id_, dirty_);
  }
  bm_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPageId;
  frame_ = kNoFrame;
  dirty_ = false;
}

BufferManager::BufferManager(PageFile* file, const StorageOptions& options)
    : file_(file), options_(options), frames_(options.buffer_pool_pages) {
  free_frames_.reserve(frames_.size());
  for (size_t i = 0; i < frames_.size(); ++i) {
    free_frames_.push_back(frames_.size() - 1 - i);
  }
}

Status BufferManager::ReadPage(PageId id, Page* page) {
  ScopedIo io(this);
  return file_->Read(id, page);
}

Status BufferManager::WritePage(PageId id, const Page& page) {
  if (wal_ != nullptr) {
    // WAL-before-data: the page's bytes may not reach the file until the
    // log record that covers them is durable. page_lsn 0 means the page
    // was never part of a logged operation (bib generation runs before
    // the log is attached) and carries no ordering obligation.
    const uint64_t page_lsn = ReadPageLsn(page);
    if (page_lsn != 0) {
      Status st = wal_->EnsureDurable(page_lsn);
      if (!st.ok()) {
        // The caller keeps the frame cached and dirty, exactly as for a
        // failed page write (PR-1 invariant).
        return st.Annotate("WAL force before write-back of page " +
                           std::to_string(id));
      }
      XTC_CHECK(wal_->DurableLsn() >= page_lsn,
                "WAL-before-data violated: page write-back would overtake "
                "the durable log");
    }
  }
  ScopedIo io(this);
  return file_->Write(id, page);
}

PageGuard BufferManager::PinResident(Partition& p, PageId id, size_t idx) {
  Frame& f = frames_[idx];
  // Relaxed suffices: every zero-check that may unmap the frame holds
  // this partition latch, which orders it against this increment.
  f.pin_count.fetch_add(1, std::memory_order_relaxed);
  if (!f.referenced.load(std::memory_order_relaxed)) {
    f.referenced.store(true, std::memory_order_relaxed);
  }
  p.hits.store(p.hits.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  return PageGuard(this, id, f.page.get(), idx);
}

void BufferManager::MapFrame(Partition& p, PageId id, size_t idx,
                             FrameState state, int pins) {
  Frame& f = frames_[idx];
  f.id = id;
  f.state = state;
  f.pin_count.store(pins, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  p.table[id] = idx;
}

void BufferManager::UnmapFrame(Partition& p, size_t idx) {
  Frame& f = frames_[idx];
  p.table.erase(f.id);
  f.id = kInvalidPageId;
  f.state = FrameState::kFree;
  f.dirty = false;
  f.rec_lsn = 0;
}

size_t BufferManager::FrameOf(PageId id) {
  Partition& p = PartitionOf(id);
  MutexLock latch(p.mu);
  auto it = p.table.find(id);
  return it == p.table.end() ? PageGuard::kNoFrame : it->second;
}

StatusOr<PageGuard> BufferManager::Fetch(PageId id) {
  XTC_RETURN_IF_ERROR(
      MaybeInject(options_.fault_injector, fault_points::kBufferPin));
  {
    Partition& p = PartitionOf(id);
    MutexLock latch(p.mu);
    auto it = p.table.find(id);
    if (it != p.table.end() &&
        frames_[it->second].state == FrameState::kResident) {
      return PinResident(p, id, it->second);
    }
  }
  return FetchSlow(id);
}

StatusOr<PageGuard> BufferManager::FetchSlow(PageId id) {
  Partition& p = PartitionOf(id);
  MutexLock guard(mu_);
  for (;;) {
    size_t cached = PageGuard::kNoFrame;
    {
      MutexLock latch(p.mu);
      auto it = p.table.find(id);
      if (it != p.table.end()) {
        if (frames_[it->second].state == FrameState::kResident) {
          return PinResident(p, id, it->second);
        }
        cached = it->second;
      }
    }
    if (cached != PageGuard::kNoFrame) {
      // kLoading: another fetch is already reading this page — coalesce
      // onto its read. kEvicting: wait for the write-back verdict (a
      // cancelled eviction resolves to a hit, a completed one to a miss).
      Frame& f = frames_[cached];
      if (f.state == FrameState::kLoading) {
        coalesced_fetches_.fetch_add(1, std::memory_order_relaxed);
      }
      ++f.waiters;
      f.cv.wait(guard.native(), [&f, id] {
        return f.id != id || (f.state != FrameState::kLoading &&
                              f.state != FrameState::kEvicting);
      });
      --f.waiters;
      continue;  // re-check the table from scratch
    }
    int victim = FindVictim();
    if (victim < 0) {
      return Status::ResourceExhausted("buffer pool exhausted (all pinned)");
    }
    const size_t idx = static_cast<size_t>(victim);
    Frame& f = frames_[idx];
    {
      MutexLock latch(p.mu);
      // FindVictim may have dropped mu_ for a write-back; another fetch
      // can have cached `id` meanwhile. Return the frame and retry.
      if (p.table.count(id) != 0) {
        free_frames_.push_back(idx);
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (!f.page) f.page = std::make_unique<Page>(file_->page_size());
      MapFrame(p, id, idx, FrameState::kLoading, 0);
    }
    Page* page = f.page.get();  // stable: kLoading pins the frame mapping
    guard.Unlock();
    Status st = ReadPage(id, page);
    guard.Lock();
    {
      MutexLock latch(p.mu);
      if (!st.ok()) {
        UnmapFrame(p, idx);
      } else {
        f.state = FrameState::kResident;
        f.pin_count.store(1, std::memory_order_relaxed);
      }
    }
    f.cv.notify_all();  // on failure, coalesced waiters retry themselves
    if (!st.ok()) {
      free_frames_.push_back(idx);
      return st;
    }
    return PageGuard(this, id, page, idx);
  }
}

StatusOr<PageGuard> BufferManager::New() {
  MutexLock guard(mu_);
  int victim = FindVictim();
  if (victim < 0) {
    return Status::ResourceExhausted("buffer pool exhausted (all pinned)");
  }
  const size_t idx = static_cast<size_t>(victim);
  // Allocate only once a frame is secured: an exhausted pool must not
  // leak file pages under caller retry loops.
  PageId id = file_->Allocate();
  Frame& f = frames_[idx];
  if (!f.page) f.page = std::make_unique<Page>(file_->page_size());
  std::memset(f.page->data(), 0, f.page->size());
  f.dirty = true;  // must be written back even if never touched again
  f.rec_lsn = wal_ != nullptr ? wal_->AppendedLsn() : 0;
  {
    Partition& p = PartitionOf(id);
    MutexLock latch(p.mu);
    MapFrame(p, id, idx, FrameState::kResident, 1);
  }
  if (capture_active_) capture_.insert(id);
  return PageGuard(this, id, f.page.get(), idx);
}

void BufferManager::Free(PageId id) {
  Partition& p = PartitionOf(id);
  MutexLock guard(mu_);
  for (;;) {
    size_t busy = PageGuard::kNoFrame;
    {
      MutexLock latch(p.mu);
      auto it = p.table.find(id);
      if (it == p.table.end()) break;
      const size_t idx = it->second;
      if (frames_[idx].state == FrameState::kResident) {
        XTC_CHECK(frames_[idx].pin_count.load(std::memory_order_acquire) == 0,
                  "BufferManager::Free of a pinned page");
        UnmapFrame(p, idx);
        free_frames_.push_back(idx);
        break;
      }
      busy = idx;
    }
    // Let the in-flight load/write-back settle; dropping the frame under
    // it would hand the loader/evictor a recycled frame.
    Frame& f = frames_[busy];
    ++f.waiters;
    f.cv.wait(guard.native(), [&f, id] {
      return f.id != id || (f.state != FrameState::kLoading &&
                            f.state != FrameState::kEvicting);
    });
    --f.waiters;
  }
  // A page freed mid-operation has no after-image to log: the pages that
  // referenced it carry the change.
  capture_.erase(id);
  file_->Free(id);
}

Status BufferManager::FlushAll() {
  MutexLock guard(mu_);
  for (size_t idx = 0; idx < frames_.size(); ++idx) {
    Frame& f = frames_[idx];
    if (f.state != FrameState::kResident || !f.dirty) continue;
    // Captured pages are mid-operation (their covering log record does
    // not exist yet) and must not reach the file — same rule as the
    // victim scan.
    if (capture_active_ && capture_.count(f.id) != 0) continue;
    const PageId id = f.id;
    Partition& p = PartitionOf(id);
    {
      MutexLock latch(p.mu);
      // A pinned frame's holder may still be mutating the page; it is
      // written back on eviction or a later flush.
      if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
      // kEvicting blocks new pins, so the page content is stable for the
      // duration of the write.
      f.state = FrameState::kEvicting;
    }
    const Page* page = f.page.get();  // stable while kEvicting
    guard.Unlock();
    Status st = WritePage(id, *page);
    guard.Lock();
    {
      MutexLock latch(p.mu);
      f.state = FrameState::kResident;
    }
    if (st.ok()) {
      f.dirty = false;
      f.rec_lsn = 0;
    }
    f.cv.notify_all();
    XTC_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

void BufferManager::BeginCapture() {
  MutexLock guard(mu_);
  XTC_CHECK(!capture_active_, "nested BufferManager capture scopes");
  capture_active_ = true;
  capture_.clear();
}

std::vector<PageId> BufferManager::CapturedPages() const {
  MutexLock guard(mu_);
  std::vector<PageId> pages(capture_.begin(), capture_.end());
  return pages;
}

void BufferManager::EndCapture() {
  MutexLock guard(mu_);
  XTC_CHECK(capture_active_, "EndCapture without BeginCapture");
  capture_active_ = false;
  capture_.clear();
}

std::vector<std::pair<PageId, uint64_t>> BufferManager::DirtyPageTable()
    const {
  MutexLock guard(mu_);
  std::vector<std::pair<PageId, uint64_t>> dpt;
  for (const Frame& f : frames_) {
    if (f.id == kInvalidPageId || !f.dirty) continue;
    if (f.state != FrameState::kResident && f.state != FrameState::kEvicting) {
      continue;
    }
    dpt.emplace_back(f.id, f.rec_lsn);
  }
  return dpt;
}

size_t BufferManager::PinnedFrames() const {
  MutexLock guard(mu_);
  size_t pinned = 0;
  for (const Frame& f : frames_) {
    if (f.pin_count.load(std::memory_order_acquire) > 0) ++pinned;
  }
  return pinned;
}

size_t BufferManager::FramesInIo() const {
  MutexLock guard(mu_);
  size_t in_io = 0;
  for (const Frame& f : frames_) {
    if (f.state == FrameState::kLoading || f.state == FrameState::kEvicting) {
      ++in_io;
    }
  }
  return in_io;
}

BufferPoolStats BufferManager::io_stats() const {
  BufferPoolStats s;
  s.buffer_hits = hits();
  s.buffer_misses = misses();
  s.io_in_flight_hwm = io_in_flight_hwm_.load(std::memory_order_relaxed);
  s.coalesced_fetches = coalesced_fetches_.load(std::memory_order_relaxed);
  s.eviction_writebacks =
      eviction_writebacks_.load(std::memory_order_relaxed);
  s.failed_writebacks = failed_writebacks_.load(std::memory_order_relaxed);
  s.cancelled_evictions =
      cancelled_evictions_.load(std::memory_order_relaxed);
  return s;
}

uint64_t BufferManager::hits() const {
  uint64_t total = 0;
  for (const Partition& p : partitions_) {
    total += p.hits.load(std::memory_order_relaxed);
  }
  return total;
}

void BufferManager::Unpin(size_t frame, PageId id, bool dirty) {
  if (frame == PageGuard::kNoFrame) frame = FrameOf(id);
  XTC_CHECK(frame < frames_.size() && frames_[frame].id == id,
            "BufferManager::Unpin of an uncached page");
  Frame& f = frames_[frame];
  if (!dirty) {
    // Release: the holder's page accesses happen-before any eviction
    // that observes the zero (acquire) and reuses the frame.
    const int pins = f.pin_count.fetch_sub(1, std::memory_order_release);
    XTC_CHECK(pins > 0, "BufferManager::Unpin without a pin");
    return;
  }
  // The dirty mark, rec_lsn and capture entry must all land before the
  // pin drops: a victim scan (under mu_) could otherwise drop the frame as
  // clean.
  MutexLock guard(mu_);
  XTC_CHECK(f.pin_count.load(std::memory_order_relaxed) > 0,
            "BufferManager::Unpin without a pin");
  if (!f.dirty && wal_ != nullptr) f.rec_lsn = wal_->AppendedLsn();
  f.dirty = true;
  if (capture_active_) capture_.insert(id);
  f.pin_count.fetch_sub(1, std::memory_order_release);
}

int BufferManager::FindVictim() {
  // Frames already attempted in this call (write-back failed, or the
  // eviction was cancelled by a waiter): each restart of the scan marks
  // at least one, so the loop terminates within frames_.size() rounds.
  std::vector<bool> tried;
  const size_t n = frames_.size();
  for (;;) {
    if (!free_frames_.empty()) {
      size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return static_cast<int>(idx);
    }
    // CLOCK sweep. The first two revolutions give referenced frames a
    // second chance (the first may do nothing but clear bits); the third
    // ignores the bits, so concurrent hits that keep re-referencing every
    // unpinned frame cannot make the scan report a spurious exhaustion.
    // A dirty frame whose write-back fails (injected or real I/O error)
    // must NOT be evicted — dropping it would lose committed data outside
    // any transaction's undo reach. It stays cached and dirty; the scan
    // moves on to the next candidate.
    bool restarted = false;
    for (size_t step = 0; step < 3 * n && !restarted; ++step) {
      const size_t idx = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % n;
      Frame& f = frames_[idx];
      if (f.state != FrameState::kResident || (!tried.empty() && tried[idx]) ||
          f.pin_count.load(std::memory_order_relaxed) > 0) {
        continue;
      }
      if (step < 2 * n &&
          f.referenced.exchange(false, std::memory_order_relaxed)) {
        continue;
      }
      // Mid-operation pages (in the active capture set) are pinned in
      // spirit: their covering log record does not exist yet, so neither
      // a clean drop (losing un-redoable bytes' context) nor a dirty
      // write-back (WAL-before-data) is allowed.
      if (capture_active_ && capture_.count(f.id) != 0) continue;
      const PageId victim_id = f.id;
      Partition& p = PartitionOf(victim_id);
      {
        MutexLock latch(p.mu);
        // Pins are raised only under this latch, so a zero seen here
        // stays zero until the frame has left kResident.
        if (f.pin_count.load(std::memory_order_acquire) > 0) continue;
        if (!f.dirty) {
          UnmapFrame(p, idx);
          return static_cast<int>(idx);
        }
        // Dirty victim: write it back without mu_. The frame stays in the
        // table in kEvicting so a concurrent fetch of this page waits for
        // the verdict instead of double-caching it, and no second
        // evictor can pick it.
        f.state = FrameState::kEvicting;
      }
      const Page* victim_page = f.page.get();  // stable while kEvicting
      eviction_writebacks_.fetch_add(1, std::memory_order_relaxed);
      mu_.unlock();
      Status st = WritePage(victim_id, *victim_page);
      mu_.lock();
      if (tried.empty()) tried.resize(n, false);
      tried[idx] = true;
      bool evicted = false;
      {
        MutexLock latch(p.mu);
        if (!st.ok()) {
          failed_writebacks_.fetch_add(1, std::memory_order_relaxed);
          f.state = FrameState::kResident;  // keep it cached, still dirty
        } else if (f.waiters > 0) {
          // Re-validate after the latch drop: a fetch arrived for the
          // victim while its write-back was in flight. Evicting now would
          // force an immediate re-read, so cancel — the frame stays
          // resident and is clean (the write persisted it).
          cancelled_evictions_.fetch_add(1, std::memory_order_relaxed);
          f.state = FrameState::kResident;
          f.dirty = false;
          f.rec_lsn = 0;
        } else {
          UnmapFrame(p, idx);
          evicted = true;
        }
      }
      f.cv.notify_all();
      if (evicted) return static_cast<int>(idx);
      // mu_ was dropped: free frames may have appeared. Restart the scan,
      // skipping tried frames.
      restarted = true;
    }
    if (restarted) continue;
    // No candidate in the sweep. Frames mid-I/O are merely transient:
    // a finishing load or write-back can free one, so wait for a state
    // transition and rescan rather than failing. (The old global-latch
    // pool blocked here implicitly; reporting exhaustion instead leaks
    // spurious errors into multi-page tree mutations that are not
    // failure-atomic.) Note we do NOT register in f.waiters — that would
    // make the evictor cancel its eviction, and the scan wants the frame
    // released, not the page kept.
    size_t in_io = n;
    for (size_t i = 0; i < n; ++i) {
      if (frames_[i].state == FrameState::kLoading ||
          frames_[i].state == FrameState::kEvicting) {
        in_io = i;
        break;
      }
    }
    if (in_io == n) return -1;  // genuinely exhausted
    Frame& w = frames_[in_io];
    // The wait needs a unique_lock; adopt the mu_ we already hold and
    // release it back un-owned afterwards — net lock state unchanged, so
    // this stays invisible to (and sound under) the analysis.
    std::unique_lock<std::mutex> lk(mu_.native(), std::adopt_lock);
    w.cv.wait(lk, [&w] {
      return w.state != FrameState::kLoading &&
             w.state != FrameState::kEvicting;
    });
    lk.release();
  }
}

}  // namespace xtc
