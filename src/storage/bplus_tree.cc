#include "storage/bplus_tree.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "util/check.h"

namespace xtc {

namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string ChildValue(PageId id) {
  std::string v(sizeof(PageId), '\0');
  std::memcpy(v.data(), &id, sizeof(PageId));
  return v;
}

// Where to split a full leaf's sorted entries (with the new entry
// applied): the size of the left half, or 0 when no two pages hold them.
// When the page overflowed through a strictly ascending insert (document
// bulk load in SPLID order), keep the left page full and open a fresh
// right page — this is what gives the store its high occupancy (paper
// §3.1: > 96 %). Otherwise balance the halves by bytes, moving outward
// from the balance point until both fit.
size_t LeafSplitPoint(const SlottedPage& page, const Entries& entries,
                      bool appending) {
  const size_t n = entries.size();
  auto fits = [&](size_t m) {
    return page.RebuildFits(entries, 0, m) && page.RebuildFits(entries, m, n);
  };
  if (appending && fits(n - 1)) return n - 1;
  std::vector<uint64_t> before(n + 1, 0);  // bytes of entries[0, m)
  for (size_t i = 0; i < n; ++i) {
    before[i + 1] = before[i] + SlottedPage::EntrySize(entries[i].first,
                                                       entries[i].second);
  }
  // The m in [1, n-1] whose left half is closest to half the bytes (ties
  // to the smaller, so equal-sized entries split as n / 2).
  size_t balance = 1;
  while (balance < n - 1 && 2 * before[balance] < before[n]) ++balance;
  if (balance > 1 && 2 * before[balance] >= before[n] &&
      before[n] - 2 * before[balance - 1] <= 2 * before[balance] - before[n]) {
    --balance;
  }
  for (size_t d = 0; d < n; ++d) {
    if (balance + d < n && fits(balance + d)) return balance + d;
    if (d > 0 && d < balance && fits(balance - d)) return balance - d;
  }
  return 0;
}

// One thread's leaf hints: the leaf its last descent of a tree ended in.
// The tree pointer is only compared, never dereferenced; a destroyed
// tree's hint cannot match a successor at the same address because the
// successor draws a fresh epoch.
struct LeafHint {
  const BplusTree* tree = nullptr;
  uint64_t epoch = 0;
  PageId leaf = kInvalidPageId;
};

// A few slots: one document touches three trees (document, element
// index, ID index).
constexpr size_t kHintSlots = 4;

struct HintTable {
  std::array<LeafHint, kHintSlots> slots;
  size_t next_victim = 0;

  LeafHint* Find(const BplusTree* tree) {
    for (LeafHint& h : slots) {
      if (h.tree == tree) return &h;
    }
    return nullptr;
  }

  void Record(const BplusTree* tree, uint64_t epoch, PageId leaf) {
    LeafHint* h = Find(tree);
    if (h == nullptr) h = &slots[next_victim++ % kHintSlots];
    *h = LeafHint{tree, epoch, leaf};
  }
};

thread_local HintTable tls_hints;

std::atomic<uint64_t> next_epoch{1};

}  // namespace

uint64_t BplusTree::NextEpoch() {
  return next_epoch.fetch_add(1, std::memory_order_relaxed);
}

BplusTree::BplusTree(BufferManager* bm, bool prefix_compression)
    : bm_(bm), prefix_compression_(prefix_compression), epoch_(NextEpoch()) {
  auto guard = bm_->New();
  XTC_CHECK(guard.ok(), "buffer pool cannot host the B+-tree root page");
  SlottedPage sp(guard->page());
  sp.Init(PageType::kLeaf, prefix_compression_);
  guard->MarkDirty();
  root_ = guard->id();
}

PageId BplusTree::RouteChild(const SlottedPage& sp, std::string_view key) {
  bool found = false;
  int i = sp.LowerBound(key, &found);
  if (found) return sp.ChildAt(i);
  if (i == 0) return sp.leftmost_child();
  return sp.ChildAt(i - 1);
}

StatusOr<BplusTree::LeafPos> BplusTree::SeekLeaf(std::string_view key) const {
  LeafPos pos;
  const LeafHint* hint = tls_hints.Find(this);
  if (hint != nullptr && hint->epoch == epoch_) {
    // A fetch error here is the caller's error, exactly as on a descent.
    auto guard = bm_->Fetch(hint->leaf);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      pos.slot = sp.LowerBound(key, &pos.found);
      // Within one epoch every leaf keeps its key range, so a key that
      // matches or falls strictly between two of the leaf's keys belongs
      // here. At either edge the neighbour leaf may own it: descend.
      if (pos.found || (pos.slot > 0 && pos.slot < sp.num_slots())) {
        pos.guard = std::move(*guard);
        return pos;
      }
    }
  }
  PageId current = root_;
  for (;;) {
    auto guard = bm_->Fetch(current);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      pos.slot = sp.LowerBound(key, &pos.found);
      pos.guard = std::move(*guard);
      tls_hints.Record(this, epoch_, current);
      return pos;
    }
    current = RouteChild(sp, key);
  }
}

StatusOr<std::string> BplusTree::Get(std::string_view key) const {
  XTC_ASSIGN_OR_RETURN(LeafPos pos, SeekLeaf(key));
  if (!pos.found) return Status::NotFound("key not in tree");
  return std::string(SlottedPage(pos.guard.page()).Value(pos.slot));
}

bool BplusTree::Contains(std::string_view key) const {
  auto pos = SeekLeaf(key);
  return pos.ok() && pos->found;
}

Status BplusTree::Insert(std::string_view key, std::string_view value) {
  return Put(key, value, /*replace=*/false);
}

Status BplusTree::Put(std::string_view key, std::string_view value,
                      bool replace) {
  // At most two descents: one that only made room leaves the entry's
  // position at a leaf edge, where the next split always fits it.
  bool applied = false;
  for (int round = 0; !applied; ++round) {
    if (round == 2) return Status::Internal("leaf split made no room");
    applied = true;
    std::optional<Split> split;
    XTC_RETURN_IF_ERROR(
        InsertRec(root_, key, value, replace, &applied, &split));
    if (!split.has_value()) continue;
    // Grow the tree: new root referencing the old root and the new right.
    auto guard = bm_->New();
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    sp.Init(PageType::kInner, prefix_compression_);
    sp.set_leftmost_child(root_);
    bool ok = sp.Insert(split->separator, ChildValue(split->right));
    if (!ok) return Status::Internal("root split: separator does not fit");
    guard->MarkDirty();
    root_ = guard->id();
    InvalidateHints();
  }
  if (!replace) ++count_;
  return Status::OK();
}

Status BplusTree::InsertRec(PageId node, std::string_view key,
                            std::string_view value, bool replace,
                            bool* applied, std::optional<Split>* split) {
  auto guard = bm_->Fetch(node);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->page());

  if (sp.type() == PageType::kLeaf) {
    bool found = false;
    const int slot = sp.LowerBound(key, &found);
    if (found != replace) {
      return replace ? Status::NotFound("key not in tree")
                     : Status::InvalidArgument("duplicate key");
    }
    if (replace ? sp.UpdateValue(slot, value) : sp.Insert(key, value)) {
      guard->MarkDirty();
      return Status::OK();
    }
    Status st = SplitLeaf(&sp, node, key, value, replace, applied, split);
    guard->MarkDirty();
    return st;
  }

  PageId child = RouteChild(sp, key);
  std::optional<Split> child_split;
  // Release the pin while descending? The guard keeps the parent pinned;
  // with a pool of thousands of frames and trees a few levels deep this
  // is safe and simplifies split propagation.
  XTC_RETURN_IF_ERROR(
      InsertRec(child, key, value, replace, applied, &child_split));
  if (!child_split.has_value()) return Status::OK();

  if (sp.Insert(child_split->separator, ChildValue(child_split->right))) {
    guard->MarkDirty();
    return Status::OK();
  }
  Status st =
      SplitInner(&sp, child_split->separator, child_split->right, split);
  guard->MarkDirty();
  return st;
}

Status BplusTree::SplitLeaf(SlottedPage* left, PageId left_id,
                            std::string_view key, std::string_view value,
                            bool replace, bool* applied,
                            std::optional<Split>* split) {
  Entries entries = left->Extract();
  auto pos = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, std::string_view k) { return e.first < k; });
  const size_t at = static_cast<size_t>(pos - entries.begin());
  const bool appending = !replace && pos == entries.end();
  std::string old_value;
  if (replace) {
    old_value = std::exchange(pos->second, std::string(value));
  } else {
    entries.insert(pos, {std::string(key), std::string(value)});
  }
  if (!left->RebuildFits(entries, at, at + 1)) {
    return Status::InvalidArgument("entry does not fit on a page");
  }

  size_t mid = LeafSplitPoint(*left, entries, appending);
  if (mid == 0) {
    // No two pages hold the entry with its neighbours (a large entry among
    // small ones on a full page). Split the old entries at the entry's
    // position instead; the caller's next descent finds that position at
    // a leaf edge, and a split there fits since the entry fits alone.
    *applied = false;
    if (replace) {
      entries[at].second = std::move(old_value);
    } else {
      entries.erase(entries.begin() + static_cast<long>(at));
    }
    mid = at;
    if (mid == 0 || mid == entries.size()) {
      return Status::Internal("leaf split: no split point fits");
    }
  }

  // Pin every page the split writes before changing any of them.
  const PageId old_next = left->next();
  PageGuard next_guard;
  if (old_next != kInvalidPageId) {
    auto g = bm_->Fetch(old_next);
    if (!g.ok()) return g.status();
    next_guard = std::move(*g);
  }
  auto right_guard = bm_->New();
  if (!right_guard.ok()) return right_guard.status();
  InvalidateHints();
  SlottedPage right(right_guard->page());
  right.Init(PageType::kLeaf, prefix_compression_);

  const Entries left_half(entries.begin(),
                          entries.begin() + static_cast<long>(mid));
  const Entries right_half(entries.begin() + static_cast<long>(mid),
                           entries.end());
  XTC_CHECK(left->Rebuild(PageType::kLeaf, left_half) &&
                right.Rebuild(PageType::kLeaf, right_half),
            "leaf split halves must fit after RebuildFits");
  // Chain: left <-> right <-> old_next.
  right.set_next(old_next);
  right.set_prev(left_id);
  left->set_next(right_guard->id());
  if (old_next != kInvalidPageId) {
    SlottedPage(next_guard.page()).set_prev(right_guard->id());
    next_guard.MarkDirty();
  }
  right_guard->MarkDirty();
  *split = Split{right_half.front().first, right_guard->id()};
  return Status::OK();
}

Status BplusTree::SplitInner(SlottedPage* left, std::string_view key,
                             PageId right_child, std::optional<Split>* split) {
  auto entries = left->Extract();
  auto pos = entries.begin();
  while (pos != entries.end() && pos->first < key) ++pos;
  const bool appending = (pos == entries.end());
  entries.insert(pos, {std::string(key), ChildValue(right_child)});

  // Rightmost-split optimization, as in SplitLeaf (one separator must
  // move up, so the ascending case keeps all but the last entry left).
  size_t mid = appending ? entries.size() - 2 : entries.size() / 2;
  std::string separator = entries[mid].first;
  PageId mid_child;
  std::memcpy(&mid_child, entries[mid].second.data(), sizeof(PageId));

  auto right_guard = bm_->New();
  if (!right_guard.ok()) return right_guard.status();
  InvalidateHints();
  SlottedPage right(right_guard->page());
  right.Init(PageType::kInner, prefix_compression_);
  right.set_leftmost_child(mid_child);

  std::vector<std::pair<std::string, std::string>> left_half(
      entries.begin(), entries.begin() + static_cast<long>(mid));
  std::vector<std::pair<std::string, std::string>> right_half(
      entries.begin() + static_cast<long>(mid) + 1, entries.end());

  PageId leftmost = left->leftmost_child();
  if (!left->Rebuild(PageType::kInner, left_half) ||
      !right.Rebuild(PageType::kInner, right_half)) {
    return Status::Internal("inner split halves do not fit");
  }
  left->set_leftmost_child(leftmost);
  right_guard->MarkDirty();
  *split = Split{std::move(separator), right_guard->id()};
  return Status::OK();
}

Status BplusTree::Update(std::string_view key, std::string_view value) {
  XTC_ASSIGN_OR_RETURN(LeafPos pos, SeekLeaf(key));
  if (!pos.found) return Status::NotFound("key not in tree");
  SlottedPage sp(pos.guard.page());
  // A failed UpdateValue keeps the old entry but may have compacted the
  // page, so the page is dirty either way.
  const bool in_place = sp.UpdateValue(pos.slot, value);
  pos.guard.MarkDirty();
  if (in_place) return Status::OK();
  // The value grew past the leaf: split it with the new value in the
  // entry's place.
  pos.guard.Release();
  return Put(key, value, /*replace=*/true);
}

Status BplusTree::Delete(std::string_view key) {
  bool became_empty = false;
  XTC_RETURN_IF_ERROR(DeleteRec(root_, key, &became_empty));
  --count_;
  // Collapse a root that degraded to a single child.
  for (;;) {
    auto guard = bm_->Fetch(root_);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kInner && sp.num_slots() == 0) {
      PageId only_child = sp.leftmost_child();
      PageId old_root = root_;
      guard->Release();
      bm_->Free(old_root);
      root_ = only_child;
      InvalidateHints();
      continue;
    }
    break;
  }
  return Status::OK();
}

Status BplusTree::DeleteRec(PageId node, std::string_view key,
                            bool* became_empty) {
  auto guard = bm_->Fetch(node);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->page());

  if (sp.type() == PageType::kLeaf) {
    bool found = false;
    int i = sp.LowerBound(key, &found);
    if (!found) return Status::NotFound("key not in tree");
    sp.Remove(i);
    guard->MarkDirty();
    *became_empty = (sp.num_slots() == 0);
    return Status::OK();
  }

  bool found = false;
  int i = sp.LowerBound(key, &found);
  int child_slot;      // -1 = leftmost
  PageId child;
  if (found) {
    child_slot = i;
    child = sp.ChildAt(i);
  } else if (i == 0) {
    child_slot = -1;
    child = sp.leftmost_child();
  } else {
    child_slot = i - 1;
    child = sp.ChildAt(i - 1);
  }

  bool child_empty = false;
  XTC_RETURN_IF_ERROR(DeleteRec(child, key, &child_empty));
  if (!child_empty) return Status::OK();

  // Drop the empty child from this inner node.
  InvalidateHints();
  {
    auto child_guard = bm_->Fetch(child);
    if (!child_guard.ok()) return child_guard.status();
    SlottedPage csp(child_guard->page());
    if (csp.type() == PageType::kLeaf) {
      child_guard->Release();
      FreeLeafAndUnchain(child);
    } else {
      child_guard->Release();
      bm_->Free(child);
    }
  }
  if (child_slot == -1) {
    if (sp.num_slots() > 0) {
      sp.set_leftmost_child(sp.ChildAt(0));
      sp.Remove(0);
    } else {
      // Inner node lost its only child.
      sp.set_leftmost_child(kInvalidPageId);
      *became_empty = true;
    }
  } else {
    sp.Remove(child_slot);
    // An inner node with zero slots still has its leftmost child, so it
    // is not empty.
  }
  guard->MarkDirty();
  return Status::OK();
}

void BplusTree::FreeLeafAndUnchain(PageId id) {
  PageId prev = kInvalidPageId, next = kInvalidPageId;
  {
    auto guard = bm_->Fetch(id);
    if (!guard.ok()) return;
    SlottedPage sp(guard->page());
    prev = sp.prev();
    next = sp.next();
  }
  if (prev != kInvalidPageId) {
    auto g = bm_->Fetch(prev);
    if (g.ok()) {
      SlottedPage sp(g->page());
      sp.set_next(next);
      g->MarkDirty();
    }
  }
  if (next != kInvalidPageId) {
    auto g = bm_->Fetch(next);
    if (g.ok()) {
      SlottedPage sp(g->page());
      sp.set_prev(prev);
      g->MarkDirty();
    }
  }
  bm_->Free(id);
}

BplusTree::Occupancy BplusTree::MeasureOccupancy() const {
  Occupancy occ;
  // Walk the whole tree breadth-first from the root.
  std::vector<PageId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<PageId> next;
    for (PageId id : frontier) {
      auto guard = bm_->Fetch(id);
      if (!guard.ok()) continue;
      SlottedPage sp(guard->page());
      occ.live_bytes += sp.LiveBytes();
      occ.capacity_bytes += guard->page()->size();
      if (sp.type() == PageType::kLeaf) {
        ++occ.leaf_pages;
      } else {
        ++occ.inner_pages;
        next.push_back(sp.leftmost_child());
        for (int i = 0; i < sp.num_slots(); ++i) {
          next.push_back(sp.ChildAt(i));
        }
      }
    }
    frontier = std::move(next);
  }
  return occ;
}

Status BplusTree::CollectPages(std::vector<PageId>* out) const {
  std::vector<PageId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<PageId> next;
    for (PageId id : frontier) {
      auto guard = bm_->Fetch(id);
      if (!guard.ok()) {
        return guard.status().Annotate("CollectPages: page " +
                                       std::to_string(id));
      }
      out->push_back(id);
      SlottedPage sp(guard->page());
      if (sp.type() != PageType::kLeaf) {
        next.push_back(sp.leftmost_child());
        for (int i = 0; i < sp.num_slots(); ++i) {
          next.push_back(sp.ChildAt(i));
        }
      }
    }
    frontier = std::move(next);
  }
  return Status::OK();
}

int BplusTree::Height() const {
  int h = 1;
  PageId current = root_;
  for (;;) {
    auto guard = bm_->Fetch(current);
    if (!guard.ok()) return h;
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) return h;
    current = sp.leftmost_child();
    ++h;
  }
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

void BplusTree::Iterator::Invalidate(const Status& st) {
  valid_ = false;
  if (status_.ok()) status_ = st;
}

void BplusTree::Iterator::Load(PageGuard& guard, int slot) {
  SlottedPage sp(guard.page());
  page_ = guard.id();
  slot_ = slot;
  key_ = sp.FullKey(slot);
  value_ = std::string(sp.Value(slot));
  valid_ = true;
}

void BplusTree::Iterator::AdvanceForward(PageGuard guard, int slot) {
  for (;;) {
    SlottedPage sp(guard.page());
    if (slot < sp.num_slots()) {
      Load(guard, slot);
      return;
    }
    PageId next = sp.next();
    guard.Release();
    if (next == kInvalidPageId) {
      valid_ = false;
      return;
    }
    auto next_guard = tree_->bm_->Fetch(next);
    if (!next_guard.ok()) {
      Invalidate(next_guard.status());
      return;
    }
    guard = std::move(*next_guard);
    slot = 0;
  }
}

void BplusTree::Iterator::AdvanceBackward(PageGuard guard, int slot) {
  for (;;) {
    SlottedPage sp(guard.page());
    if (slot == INT32_MAX) slot = sp.num_slots() - 1;
    if (slot >= 0 && slot < sp.num_slots()) {
      Load(guard, slot);
      return;
    }
    PageId prev = sp.prev();
    guard.Release();
    if (prev == kInvalidPageId) {
      valid_ = false;
      return;
    }
    auto prev_guard = tree_->bm_->Fetch(prev);
    if (!prev_guard.ok()) {
      Invalidate(prev_guard.status());
      return;
    }
    guard = std::move(*prev_guard);
    slot = INT32_MAX;  // last slot of the previous page
  }
}

bool BplusTree::Iterator::FetchCurrent(PageGuard* out) {
  auto guard = tree_->bm_->Fetch(page_);
  if (!guard.ok()) {
    Invalidate(guard.status());
    return false;
  }
  *out = std::move(*guard);
  return true;
}

void BplusTree::Iterator::SeekToFirst() {
  status_ = Status::OK();
  PageId current = tree_->root_;
  for (;;) {
    auto guard = tree_->bm_->Fetch(current);
    if (!guard.ok()) {
      Invalidate(guard.status());
      return;
    }
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      AdvanceForward(std::move(*guard), 0);
      return;
    }
    current = sp.leftmost_child();
  }
}

void BplusTree::Iterator::SeekToLast() {
  status_ = Status::OK();
  PageId current = tree_->root_;
  for (;;) {
    auto guard = tree_->bm_->Fetch(current);
    if (!guard.ok()) {
      Invalidate(guard.status());
      return;
    }
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      AdvanceBackward(std::move(*guard), INT32_MAX);
      return;
    }
    current = sp.num_slots() > 0 ? sp.ChildAt(sp.num_slots() - 1)
                                 : sp.leftmost_child();
  }
}

void BplusTree::Iterator::Seek(std::string_view target) {
  status_ = Status::OK();
  auto pos = tree_->SeekLeaf(target);
  if (!pos.ok()) {
    Invalidate(pos.status());
    return;
  }
  AdvanceForward(std::move(pos->guard), pos->slot);
}

void BplusTree::Iterator::SeekForPrev(std::string_view target) {
  status_ = Status::OK();
  auto pos = tree_->SeekLeaf(target);
  if (!pos.ok()) {
    Invalidate(pos.status());
    return;
  }
  AdvanceBackward(std::move(pos->guard), pos->found ? pos->slot : pos->slot - 1);
}

void BplusTree::Iterator::Next() {
  if (!valid_) return;
  status_ = Status::OK();
  PageGuard guard;
  if (FetchCurrent(&guard)) AdvanceForward(std::move(guard), slot_ + 1);
}

void BplusTree::Iterator::Prev() {
  if (!valid_) return;
  status_ = Status::OK();
  PageGuard guard;
  if (FetchCurrent(&guard)) AdvanceBackward(std::move(guard), slot_ - 1);
}

}  // namespace xtc
