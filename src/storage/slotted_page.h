// Slotted-page layout with page-level key prefix compression.
//
// The paper (§3.2) stresses that prefix compression of SPLID keys is "very
// effective" (2–3 bytes per stored SPLID on average). Here each page
// stores one common prefix once; every cell stores only its key suffix.
// The prefix is (re)computed when a page is rebuilt (splits, compaction,
// prefix violation), which is where compression pays off in practice.
//
// Layout (little-endian):
//   0   u8   page type (1 = leaf, 2 = inner)
//   1   u8   reserved
//   2   u16  num_slots
//   4   u16  cell_end          end of the cell area (grows upward)
//   6   u16  prefix_len
//   8   u32  aux1              leaf: next page id / inner: leftmost child
//   12  u32  aux2              leaf: prev page id / inner: unused
//   16  prefix bytes
//   ... cells (grow upward) ... free ... slot array (grows downward from
//   the page end; slot i is a u16 cell offset).
//
// Cell: u16 key_suffix_len | u16 value_len | key suffix | value.
// Inner pages store the 4-byte child PageId as the value.

#ifndef XTC_STORAGE_SLOTTED_PAGE_H_
#define XTC_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/page.h"

namespace xtc {

enum class PageType : uint8_t { kFree = 0, kLeaf = 1, kInner = 2 };

class SlottedPage {
 public:
  /// Wraps (does not own) a page buffer.
  explicit SlottedPage(Page* page) : page_(page) {}

  /// `prefix_compression` disables/enables page-level key prefix
  /// truncation (the flag persists in the page header so compaction and
  /// rebuilds honor it — used by the ablation benchmark).
  void Init(PageType type, bool prefix_compression = true);

  PageType type() const;
  bool prefix_compression() const;
  uint16_t num_slots() const;
  std::string_view prefix() const;

  // Leaf chain / inner leftmost child.
  PageId next() const { return aux1(); }
  void set_next(PageId id) { set_aux1(id); }
  PageId prev() const { return aux2(); }
  void set_prev(PageId id) { set_aux2(id); }
  PageId leftmost_child() const { return aux1(); }
  void set_leftmost_child(PageId id) { set_aux1(id); }

  /// Key suffix stored in slot i (without the page prefix).
  std::string_view KeySuffix(int i) const;
  /// Reconstructed full key (prefix + suffix).
  std::string FullKey(int i) const;
  std::string_view Value(int i) const;
  PageId ChildAt(int i) const;  // inner pages only

  /// Index of the first slot with key >= full_key; *found set if equal.
  int LowerBound(std::string_view full_key, bool* found) const;

  /// Inserts (full_key, value) keeping slots sorted. Returns false if the
  /// page lacks space even after compaction/prefix rebuild.
  bool Insert(std::string_view full_key, std::string_view value);

  /// Replaces the value of slot i in place if sizes allow, else via
  /// remove+insert. Returns false if out of space; the page is unchanged
  /// then (the slot still holds the old value, possibly at a new index).
  bool UpdateValue(int i, std::string_view value);

  void Remove(int i);

  /// Number of payload bytes this (key, value) pair would need, including
  /// slot overhead, assuming no prefix sharing.
  static uint32_t EntrySize(std::string_view key, std::string_view value);

  /// Bytes available for new cells without rebuild.
  uint32_t FreeSpace() const;
  /// Bytes used by live cells + slots + header (lower bound after rebuild).
  uint32_t LiveBytes() const;

  /// Extracts all entries with full keys (used by splits and rebuilds).
  std::vector<std::pair<std::string, std::string>> Extract() const;

  /// Reinitializes the page with the given sorted entries, computing the
  /// common prefix of the first and last key. Returns false if they don't
  /// fit.
  bool Rebuild(PageType type,
               const std::vector<std::pair<std::string, std::string>>& entries);

  /// Whether Rebuild would fit entries[begin, end) (sorted) on this page.
  /// Reads only the page's size and prefix-compression flag, so a split
  /// can choose its halves before it changes any page.
  bool RebuildFits(
      const std::vector<std::pair<std::string, std::string>>& entries,
      size_t begin, size_t end) const;

 private:
  uint8_t* data() { return page_->data(); }
  const uint8_t* data() const { return page_->data(); }
  uint32_t page_size() const { return page_->size(); }

  uint16_t cell_end() const;
  void set_cell_end(uint16_t v);
  void set_num_slots(uint16_t v);
  void set_prefix(std::string_view p);
  PageId aux1() const;
  void set_aux1(PageId id);
  PageId aux2() const;
  void set_aux2(PageId id);

  uint16_t SlotOffset(int i) const;
  void SetSlotOffset(int i, uint16_t off);
  uint32_t HeaderEnd() const;
  uint32_t SlotArrayStart() const;

  /// The page prefix Rebuild stores for sorted keys first..last.
  std::string_view RebuildPrefix(std::string_view first,
                                 std::string_view last) const;

  /// Compacts cells (removes holes); optionally re-derives the prefix.
  void Compact(bool recompute_prefix);

  /// Three-way compare of full_key against the key in slot i.
  int CompareAt(int i, std::string_view full_key_rest) const;

  Page* page_;
};

}  // namespace xtc

#endif  // XTC_STORAGE_SLOTTED_PAGE_H_
