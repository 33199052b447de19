// B+-tree over variable-length byte-string keys with prefix-compressed
// pages (paper §3.2, Fig. 6: document index + container pages).
//
// A single tree keyed by encoded SPLIDs stores a whole XML document in
// left-most depth-first order; further trees implement the element index
// and the ID index. Leaves are doubly chained for bidirectional
// navigation (previous/next sibling).
//
// Concurrency: the tree itself is not internally synchronized. Callers
// (NodeStore) wrap operations in a short reader/writer latch; latches are
// never held across lock waits (DESIGN.md §4).
//
// Leaf hints: SPLID order is document order, so consecutive navigation
// hops usually land in the same leaf. Every point descent (Get, Contains,
// Update, Iterator::Seek/SeekForPrev) first tries the leaf the calling
// thread's previous descent of this tree ended in, and only descends from
// the root when that leaf provably does not hold the key's position (see
// SeekLeaf in bplus_tree.cc). A hint names {tree, structure epoch, leaf};
// the tree draws a fresh epoch from a process-wide counter at
// construction and after every page it allocates or frees, so a hint
// never outlives the page layout it was recorded against.

#ifndef XTC_STORAGE_BPLUS_TREE_H_
#define XTC_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/slotted_page.h"
#include "util/status.h"

namespace xtc {

class BplusTree {
 public:
  /// Creates an empty tree (allocates the root leaf). Key prefix
  /// compression can be disabled for ablation measurements.
  explicit BplusTree(BufferManager* bm, bool prefix_compression = true);

  /// Opens an existing tree at a known root (restart recovery: the root
  /// and entry count come from the WAL's tree metadata).
  BplusTree(BufferManager* bm, PageId root, uint64_t count,
            bool prefix_compression = true)
      : bm_(bm),
        prefix_compression_(prefix_compression),
        root_(root),
        count_(count),
        epoch_(NextEpoch()) {}

  BplusTree(const BplusTree&) = delete;
  BplusTree& operator=(const BplusTree&) = delete;

  PageId root() const { return root_; }

  /// Appends every page id reachable from the root (recovery rebuilds
  /// the page-file free list from the union over all trees).
  Status CollectPages(std::vector<PageId>* out) const;

  /// Inserts a new key. Fails with kInvalidArgument on duplicates.
  Status Insert(std::string_view key, std::string_view value);

  /// Replaces the value of an existing key.
  Status Update(std::string_view key, std::string_view value);

  /// Removes a key. Fails with kNotFound if absent.
  Status Delete(std::string_view key);

  StatusOr<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  uint64_t size() const { return count_; }

  /// Retires every thread's leaf hint for this tree. The tree does this
  /// itself whenever it allocates or frees a page; an owner that rewrites
  /// the tree's pages behind its back (follower redo) must call it too.
  void InvalidateHints() { epoch_ = NextEpoch(); }

  /// Forward/backward cursor. Positioning methods copy the entry out, so
  /// the iterator holds no page pins between calls; it must not be used
  /// across tree modifications. A page fetch failure ends the iteration
  /// (Valid() turns false) and is remembered in status(): callers that
  /// treat !Valid() as "no more entries" must check status() afterwards,
  /// or an I/O error silently truncates the scan.
  class Iterator {
   public:
    explicit Iterator(const BplusTree* tree) : tree_(tree) {}

    void SeekToFirst();
    void SeekToLast();
    /// Positions at the first entry with key >= target.
    void Seek(std::string_view target);
    /// Positions at the last entry with key <= target.
    void SeekForPrev(std::string_view target);
    void Next();
    void Prev();

    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    /// OK while the scan merely ran out of entries; the first page fetch
    /// error otherwise. Reset by every positioning call.
    const Status& status() const { return status_; }

   private:
    void Invalidate(const Status& st);
    // Copy out (guard's page, slot) as the current entry.
    void Load(PageGuard& guard, int slot);
    // Move to (guard's page, slot), skipping over page ends and empty
    // pages; the slot may be past the end (forward), or -1 or INT32_MAX
    // for the page's last slot (backward).
    void AdvanceForward(PageGuard guard, int slot);
    void AdvanceBackward(PageGuard guard, int slot);
    // Pins page_ for Next()/Prev(); false (and invalid) on a fetch error.
    bool FetchCurrent(PageGuard* out);

    const BplusTree* tree_;
    bool valid_ = false;
    Status status_ = Status::OK();
    PageId page_ = kInvalidPageId;
    int slot_ = 0;
    std::string key_;
    std::string value_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Depth of the tree (1 = root is a leaf); for stats/tests.
  int Height() const;

  /// Storage occupancy report (paper §3.1 reports > 96 % for the taDOM
  /// store under update workloads).
  struct Occupancy {
    uint64_t leaf_pages = 0;
    uint64_t inner_pages = 0;
    uint64_t live_bytes = 0;      // header + prefix + cells + slots
    uint64_t capacity_bytes = 0;  // pages * page size
    double ratio() const {
      return capacity_bytes == 0
                 ? 0.0
                 : static_cast<double>(live_bytes) /
                       static_cast<double>(capacity_bytes);
    }
  };
  Occupancy MeasureOccupancy() const;

 private:
  struct Split {
    std::string separator;
    PageId right;
  };

  // Routes a key to the child of an inner page.
  static PageId RouteChild(const SlottedPage& sp, std::string_view key);

  // The leaf that may contain `key`, still pinned, and key's LowerBound
  // position in it.
  struct LeafPos {
    PageGuard guard;
    int slot = 0;
    bool found = false;
  };

  // Finds the leaf that may contain `key`: the calling thread's hinted
  // leaf when it provably does, else a root descent (which becomes the
  // new hint). One page fix on a hint hit.
  StatusOr<LeafPos> SeekLeaf(std::string_view key) const;

  static uint64_t NextEpoch();

  // Inserts an absent key (replace == false) or sets a present key's
  // value (replace == true), splitting leaves as needed.
  Status Put(std::string_view key, std::string_view value, bool replace);
  // One descent of Put. *applied is cleared when the leaf split only made
  // room for the entry (see SplitLeaf), and the caller must descend again.
  Status InsertRec(PageId node, std::string_view key, std::string_view value,
                   bool replace, bool* applied, std::optional<Split>* split);
  // Deletes `key` under `node`; *became_empty set when node has no live
  // entries/children afterwards.
  Status DeleteRec(PageId node, std::string_view key, bool* became_empty);

  // Splits the full leaf `left` with (key, value) applied. Both halves are
  // chosen and checked to fit, and every page the split needs is pinned,
  // before any page changes: a failure leaves the tree as it was.
  Status SplitLeaf(SlottedPage* left, PageId left_id, std::string_view key,
                   std::string_view value, bool replace, bool* applied,
                   std::optional<Split>* split);
  Status SplitInner(SlottedPage* left, std::string_view key, PageId right_child,
                    std::optional<Split>* split);

  void FreeLeafAndUnchain(PageId id);

  BufferManager* bm_;
  bool prefix_compression_ = true;
  PageId root_;
  uint64_t count_ = 0;
  // Structure epoch for leaf hints (file comment); guarded like the rest
  // of the tree by the caller's latch.
  uint64_t epoch_;
};

}  // namespace xtc

#endif  // XTC_STORAGE_BPLUS_TREE_H_
