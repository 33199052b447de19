// ID index: maps the value of an element's "id" attribute to the
// element's SPLID, backing getElementById() direct jumps (paper §3.2).

#ifndef XTC_NODE_ID_INDEX_H_
#define XTC_NODE_ID_INDEX_H_

#include <optional>
#include <string_view>

#include "splid/splid.h"
#include "storage/bplus_tree.h"
#include "util/status.h"

namespace xtc {

class IdIndex {
 public:
  explicit IdIndex(BufferManager* bm) : tree_(bm) {}

  /// Opens an existing index at a known root (restart recovery).
  IdIndex(BufferManager* bm, PageId root, uint64_t count)
      : tree_(bm, root, count) {}

  Status Add(std::string_view id, const Splid& element);
  Status Remove(std::string_view id);
  std::optional<Splid> Lookup(std::string_view id) const;

  uint64_t size() const { return tree_.size(); }

  /// The backing tree (checkpoint metadata / recovery page walks).
  const BplusTree& tree() const { return tree_; }
  BplusTree& tree() { return tree_; }

 private:
  BplusTree tree_;
};

}  // namespace xtc

#endif  // XTC_NODE_ID_INDEX_H_
