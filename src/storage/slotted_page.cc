#include "storage/slotted_page.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xtc {

namespace {

constexpr uint32_t kOffType = 0;
constexpr uint32_t kOffFlags = 1;
constexpr uint32_t kOffNumSlots = 2;
constexpr uint32_t kOffCellEnd = 4;
constexpr uint32_t kOffPrefixLen = 6;
constexpr uint32_t kOffAux1 = 8;
constexpr uint32_t kOffAux2 = 12;
// Bytes [16, 28) belong to the common WAL header fields (page_lsn at
// kPageLsnOffset, checksum at kPageChecksumOffset — see storage/page.h);
// slotted-page content starts after them.
constexpr uint32_t kHeaderSize = kPageWalReservedEnd;
static_assert(kHeaderSize > kPageChecksumOffset,
              "slotted cells must not overlap the WAL header fields");

uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

// memcpy from a string_view; an empty view may carry a null data(), which
// is UB to hand to memcpy even with a zero count (UBSan: nonnull args).
void CopyBytes(uint8_t* dst, std::string_view src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
}

std::string_view CommonPrefix(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return a.substr(0, i);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

void SlottedPage::Init(PageType type, bool prefix_compression) {
  // Preserve the WAL page_lsn across re-initialization (page reuse after
  // a split/merge): the LSN tracks the page's *physical* history, which
  // the re-init is part of, and the covering record re-stamps it anyway.
  const uint64_t lsn = ReadPageLsn(data());
  std::memset(data(), 0, page_size());
  std::memcpy(data() + kPageLsnOffset, &lsn, sizeof(lsn));
  data()[kOffType] = static_cast<uint8_t>(type);
  data()[kOffFlags] = prefix_compression ? 1 : 0;
  set_num_slots(0);
  set_cell_end(static_cast<uint16_t>(kHeaderSize));
  StoreU16(data() + kOffPrefixLen, 0);
}

PageType SlottedPage::type() const {
  return static_cast<PageType>(data()[kOffType]);
}

bool SlottedPage::prefix_compression() const {
  return data()[kOffFlags] != 0;
}

uint16_t SlottedPage::num_slots() const { return LoadU16(data() + kOffNumSlots); }
void SlottedPage::set_num_slots(uint16_t v) {
  StoreU16(data() + kOffNumSlots, v);
}

uint16_t SlottedPage::cell_end() const { return LoadU16(data() + kOffCellEnd); }
void SlottedPage::set_cell_end(uint16_t v) { StoreU16(data() + kOffCellEnd, v); }

std::string_view SlottedPage::prefix() const {
  uint16_t len = LoadU16(data() + kOffPrefixLen);
  return std::string_view(reinterpret_cast<const char*>(data() + kHeaderSize),
                          len);
}

void SlottedPage::set_prefix(std::string_view p) {
  StoreU16(data() + kOffPrefixLen, static_cast<uint16_t>(p.size()));
  // An empty view may carry a null data() — passing that to memcpy is UB
  // even for zero bytes.
  if (!p.empty()) std::memcpy(data() + kHeaderSize, p.data(), p.size());
}

PageId SlottedPage::aux1() const { return LoadU32(data() + kOffAux1); }
void SlottedPage::set_aux1(PageId id) { StoreU32(data() + kOffAux1, id); }
PageId SlottedPage::aux2() const { return LoadU32(data() + kOffAux2); }
void SlottedPage::set_aux2(PageId id) { StoreU32(data() + kOffAux2, id); }

uint32_t SlottedPage::HeaderEnd() const {
  return kHeaderSize + LoadU16(data() + kOffPrefixLen);
}

uint32_t SlottedPage::SlotArrayStart() const {
  return page_size() - 2u * num_slots();
}

uint16_t SlottedPage::SlotOffset(int i) const {
  return LoadU16(data() + page_size() - 2u * (static_cast<uint32_t>(i) + 1));
}

void SlottedPage::SetSlotOffset(int i, uint16_t off) {
  StoreU16(data() + page_size() - 2u * (static_cast<uint32_t>(i) + 1), off);
}

std::string_view SlottedPage::KeySuffix(int i) const {
  const uint8_t* cell = data() + SlotOffset(i);
  uint16_t klen = LoadU16(cell);
  return std::string_view(reinterpret_cast<const char*>(cell + 4), klen);
}

std::string SlottedPage::FullKey(int i) const {
  std::string out(prefix());
  auto suffix = KeySuffix(i);
  out.append(suffix.data(), suffix.size());
  return out;
}

std::string_view SlottedPage::Value(int i) const {
  const uint8_t* cell = data() + SlotOffset(i);
  uint16_t klen = LoadU16(cell);
  uint16_t vlen = LoadU16(cell + 2);
  return std::string_view(reinterpret_cast<const char*>(cell + 4 + klen), vlen);
}

PageId SlottedPage::ChildAt(int i) const {
  auto v = Value(i);
  assert(v.size() == sizeof(PageId));
  return LoadU32(reinterpret_cast<const uint8_t*>(v.data()));
}

int SlottedPage::CompareAt(int i, std::string_view full_key_rest) const {
  auto suffix = KeySuffix(i);
  int c = suffix.compare(full_key_rest);
  return c;
}

int SlottedPage::LowerBound(std::string_view full_key, bool* found) const {
  *found = false;
  std::string_view p = prefix();
  size_t n = std::min(p.size(), full_key.size());
  int pc = n == 0 ? 0 : std::memcmp(p.data(), full_key.data(), n);
  if (pc > 0) return 0;                               // every key > full_key
  if (pc < 0) return num_slots();                     // every key < full_key
  if (full_key.size() < p.size()) return 0;           // full_key < every key
  std::string_view rest = full_key.substr(p.size());
  int lo = 0, hi = num_slots();
  while (lo < hi) {
    int mid = lo + (hi - lo) / 2;
    int c = CompareAt(mid, rest);
    if (c < 0) {
      lo = mid + 1;
    } else {
      if (c == 0) *found = true;
      hi = mid;
    }
  }
  return lo;
}

uint32_t SlottedPage::EntrySize(std::string_view key, std::string_view value) {
  return 4u + static_cast<uint32_t>(key.size()) +
         static_cast<uint32_t>(value.size()) + 2u /* slot */;
}

uint32_t SlottedPage::FreeSpace() const {
  return SlotArrayStart() - cell_end();
}

uint32_t SlottedPage::LiveBytes() const {
  uint32_t total = HeaderEnd() + 2u * num_slots();
  for (int i = 0; i < num_slots(); ++i) {
    const uint8_t* cell = data() + SlotOffset(i);
    total += 4u + LoadU16(cell) + LoadU16(cell + 2);
  }
  return total;
}

std::vector<std::pair<std::string, std::string>> SlottedPage::Extract() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(num_slots());
  for (int i = 0; i < num_slots(); ++i) {
    out.emplace_back(FullKey(i), std::string(Value(i)));
  }
  return out;
}

bool SlottedPage::Rebuild(
    PageType type,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  PageId a1 = aux1();
  PageId a2 = aux2();
  const bool compress = prefix_compression();
  Init(type, compress);
  set_aux1(a1);
  set_aux2(a2);
  if (entries.empty()) return true;
  std::string_view new_prefix =
      RebuildPrefix(entries.front().first, entries.back().first);
  set_prefix(new_prefix);
  uint16_t end = static_cast<uint16_t>(HeaderEnd());
  set_cell_end(end);
  for (const auto& [key, value] : entries) {
    assert(StartsWith(key, new_prefix));
    std::string_view suffix =
        std::string_view(key).substr(new_prefix.size());
    uint32_t cell_size = 4u + suffix.size() + value.size();
    uint32_t slots_needed = 2u * (num_slots() + 1u);
    if (cell_end() + cell_size + slots_needed > page_size()) return false;
    uint16_t off = cell_end();
    uint8_t* cell = data() + off;
    StoreU16(cell, static_cast<uint16_t>(suffix.size()));
    StoreU16(cell + 2, static_cast<uint16_t>(value.size()));
    CopyBytes(cell + 4, suffix);
    CopyBytes(cell + 4 + suffix.size(), value);
    set_cell_end(static_cast<uint16_t>(off + cell_size));
    set_num_slots(num_slots() + 1);
    SetSlotOffset(num_slots() - 1, off);
  }
  return true;
}

std::string_view SlottedPage::RebuildPrefix(std::string_view first,
                                           std::string_view last) const {
  if (!prefix_compression()) return {};
  // Bound the prefix so the header always fits comfortably.
  return CommonPrefix(first, last).substr(0, page_size() / 8);
}

bool SlottedPage::RebuildFits(
    const std::vector<std::pair<std::string, std::string>>& entries,
    size_t begin, size_t end) const {
  if (begin == end) return true;
  const size_t prefix =
      RebuildPrefix(entries[begin].first, entries[end - 1].first).size();
  // Rebuild's layout: header, prefix, then per entry its cell (key
  // suffix) and slot.
  uint64_t bytes = kHeaderSize + prefix;
  for (size_t i = begin; i < end; ++i) {
    bytes += EntrySize(entries[i].first, entries[i].second) - prefix;
  }
  return bytes <= page_size();
}

void SlottedPage::Compact(bool recompute_prefix) {
  auto entries = Extract();
  PageType t = type();
  bool ok = Rebuild(t, entries);
  (void)recompute_prefix;
  (void)ok;
  assert(ok && "compaction must not lose entries");
}

bool SlottedPage::Insert(std::string_view full_key, std::string_view value) {
  if (!StartsWith(full_key, prefix())) {
    // The new key breaks the page prefix: every stored suffix must grow.
    // First check that everything (including the new entry) fits with the
    // reduced prefix — the page must stay intact when we report "full".
    // Materialize: the view returned by prefix() points into the page,
    // which Init() below zeroes.
    const std::string np(CommonPrefix(prefix(), full_key));
    auto entries = Extract();
    uint64_t needed_total = kHeaderSize + np.size() +
                            EntrySize(full_key.substr(np.size()), value);
    for (const auto& [k, v] : entries) {
      needed_total += EntrySize(std::string_view(k).substr(np.size()), v);
    }
    if (needed_total > page_size()) return false;
    PageId a1 = aux1();
    PageId a2 = aux2();
    PageType t = type();
    Init(t);
    set_aux1(a1);
    set_aux2(a2);
    set_prefix(np);
    set_cell_end(static_cast<uint16_t>(HeaderEnd()));
    for (const auto& [k, v] : entries) {
      std::string_view suffix = std::string_view(k).substr(np.size());
      uint32_t cell_size = 4u + suffix.size() + v.size();
      uint16_t off = cell_end();
      uint8_t* cell = data() + off;
      StoreU16(cell, static_cast<uint16_t>(suffix.size()));
      StoreU16(cell + 2, static_cast<uint16_t>(v.size()));
      CopyBytes(cell + 4, suffix);
      CopyBytes(cell + 4 + suffix.size(), v);
      set_cell_end(static_cast<uint16_t>(off + cell_size));
      set_num_slots(num_slots() + 1);
      SetSlotOffset(num_slots() - 1, off);
    }
  }

  std::string_view suffix = full_key.substr(prefix().size());
  uint32_t cell_size = 4u + static_cast<uint32_t>(suffix.size()) +
                       static_cast<uint32_t>(value.size());
  uint32_t needed = cell_size + 2u;  // plus one slot
  if (FreeSpace() < needed) {
    if (LiveBytes() + needed <= page_size()) {
      Compact(false);
      // Compaction recomputes the prefix; the new key may now violate it.
      if (!StartsWith(full_key, prefix())) {
        return Insert(full_key, value);
      }
      suffix = full_key.substr(prefix().size());
      cell_size = 4u + static_cast<uint32_t>(suffix.size()) +
                  static_cast<uint32_t>(value.size());
      needed = cell_size + 2u;
      if (FreeSpace() < needed) return false;
    } else {
      return false;
    }
  }

  bool found = false;
  int idx = LowerBound(full_key, &found);
  assert(!found && "duplicate key insert");

  // Write the cell.
  uint16_t off = cell_end();
  uint8_t* cell = data() + off;
  StoreU16(cell, static_cast<uint16_t>(suffix.size()));
  StoreU16(cell + 2, static_cast<uint16_t>(value.size()));
  CopyBytes(cell + 4, suffix);
  CopyBytes(cell + 4 + suffix.size(), value);
  set_cell_end(static_cast<uint16_t>(off + cell_size));

  // Shift the slot array to open position idx.
  int n = num_slots();
  uint32_t src = page_size() - 2u * static_cast<uint32_t>(n);
  uint32_t count = 2u * static_cast<uint32_t>(n - idx);
  if (count > 0) {
    std::memmove(data() + src - 2, data() + src, count);
  }
  set_num_slots(static_cast<uint16_t>(n + 1));
  SetSlotOffset(idx, off);
  return true;
}

bool SlottedPage::UpdateValue(int i, std::string_view value) {
  uint8_t* cell = data() + SlotOffset(i);
  uint16_t klen = LoadU16(cell);
  uint16_t vlen = LoadU16(cell + 2);
  if (value.size() <= vlen) {
    StoreU16(cell + 2, static_cast<uint16_t>(value.size()));
    CopyBytes(cell + 4 + klen, value);
    return true;
  }
  std::string key = FullKey(i);
  std::string old_value(Value(i));
  Remove(i);
  if (Insert(key, value)) return true;
  // The grown value does not fit: restore the original entry so failure
  // is atomic. The restore cannot fail — the old entry occupied the page
  // a moment ago, so after compaction it fits again.
  bool restored = Insert(key, old_value);
  assert(restored && "restoring the old value must fit");
  (void)restored;
  return false;
}

void SlottedPage::Remove(int i) {
  int n = num_slots();
  assert(i >= 0 && i < n);
  // Close the gap in the slot array (cell bytes become a hole; reclaimed
  // by Compact()).
  uint32_t src = page_size() - 2u * static_cast<uint32_t>(n);
  uint32_t count = 2u * static_cast<uint32_t>(n - 1 - i);
  if (count > 0) {
    std::memmove(data() + src + 2, data() + src, count);
  }
  set_num_slots(static_cast<uint16_t>(n - 1));
}

}  // namespace xtc
