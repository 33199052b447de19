// Navigation under structure changes: readers hop through the document
// (ID jump, first/last child, next/previous sibling, children, attribute
// scan, point reads) while a writer keeps splitting and freeing the
// leaves those hops land in. Each reader thread carries its own B+-tree
// leaf hints, so a hint that outlived a split or a free would show up as
// a read that disagrees with the model. Run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "node/document.h"
#include "util/rng.h"

namespace xtc {
namespace {

constexpr int kStable = 60;    // elements the writer never touches
constexpr int kChildren = 6;   // children per stable element
constexpr int kReaders = 4;
constexpr int kWriterOps = 600;
constexpr int kMaxVolatile = 12;

std::string Payload(int k) {
  return std::string(600, static_cast<char>('a' + k % 26));
}

SubtreeSpec StableSpec(int i) {
  SubtreeSpec s{"s", {{"id", "s" + std::to_string(i)},
                      {"a", "x" + std::to_string(i)}}, "", {}};
  for (int j = 0; j < kChildren; ++j) {
    s.children.push_back(SubtreeSpec{
        "c", {}, "t" + std::to_string(i) + "_" + std::to_string(j), {}});
  }
  return s;
}

SubtreeSpec VolatileSpec(int k) {
  return SubtreeSpec{"w", {{"n", std::to_string(k)}}, Payload(k), {}};
}

bool Same(const Node& a, const Node& b) {
  return a.splid == b.splid && a.record.Encode() == b.record.Encode();
}

// What a stable element reads as, taken once before any thread starts.
struct StableModel {
  Splid element;
  std::vector<Node> children;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::string> texts;
};

TEST(NavigationStressTest, HopsAgreeWithTheModelWhileLeavesSplitAndFree) {
  Document doc;
  // Stable elements on both sides of the volatile container, so its
  // growth and shrinkage move the leaf boundaries next to them.
  SubtreeSpec bib{"bib", {}, "", {}};
  for (int i = 0; i < kStable / 2; ++i) bib.children.push_back(StableSpec(i));
  bib.children.push_back(SubtreeSpec{"v", {{"id", "v"}}, "", {}});
  for (int i = kStable / 2; i < kStable; ++i) {
    bib.children.push_back(StableSpec(i));
  }
  ASSERT_TRUE(doc.BuildFromSpec(bib).ok());
  const Splid container = *doc.LookupId("v");

  std::vector<StableModel> model(kStable);
  for (int i = 0; i < kStable; ++i) {
    StableModel& m = model[i];
    m.element = *doc.LookupId("s" + std::to_string(i));
    auto children = doc.Children(m.element);
    ASSERT_TRUE(children.ok());
    ASSERT_EQ(children->size(), static_cast<size_t>(kChildren));
    m.children = *children;
    m.attributes = {{"id", "s" + std::to_string(i)},
                    {"a", "x" + std::to_string(i)}};
    for (int j = 0; j < kChildren; ++j) {
      m.texts.push_back("t" + std::to_string(i) + "_" + std::to_string(j));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0}, hops{0}, volatile_reads{0};
  auto fail = [&](const std::string& what) {
    if (mismatches.fetch_add(1) < 5) ADD_FAILURE() << what;
  };

  auto reader = [&](int r) {
    Rng rng(static_cast<uint64_t>(r) + 101);
    while (!done.load(std::memory_order_acquire)) {
      const int i = static_cast<int>(rng.Uniform(kStable));
      const StableModel& m = model[i];
      const std::string tag = "s" + std::to_string(i) + ": ";
      auto id = doc.LookupId("s" + std::to_string(i));
      if (!id.has_value() || *id != m.element) fail(tag + "id jump");

      auto first = doc.FirstChild(m.element);
      if (!first.ok() || !first->has_value() ||
          !Same(**first, m.children.front())) {
        fail(tag + "first child");
        continue;
      }
      Node at = **first;
      for (int j = 1; j < kChildren; ++j) {
        auto next = doc.NextSibling(at.splid);
        if (!next.ok() || !next->has_value() ||
            !Same(**next, m.children[j])) {
          fail(tag + "next sibling " + std::to_string(j));
          break;
        }
        at = **next;
      }
      auto past_end = doc.NextSibling(m.children.back().splid);
      if (!past_end.ok() || past_end->has_value()) fail(tag + "past the end");
      auto last = doc.LastChild(m.element);
      if (!last.ok() || !last->has_value() ||
          !Same(**last, m.children.back())) {
        fail(tag + "last child");
      }
      auto prev = doc.PreviousSibling(m.children[kChildren / 2].splid);
      if (!prev.ok() || !prev->has_value() ||
          !Same(**prev, m.children[kChildren / 2 - 1])) {
        fail(tag + "previous sibling");
      }
      auto children = doc.Children(m.element);
      if (!children.ok() || children->size() != m.children.size()) {
        fail(tag + "children");
      } else {
        for (size_t j = 0; j < m.children.size(); ++j) {
          if (!Same((*children)[j], m.children[j])) fail(tag + "children");
        }
      }
      auto attrs = doc.AttributeValues(m.element.AttributeChild());
      if (!attrs.ok() || *attrs != m.attributes) fail(tag + "attributes");
      const int j = static_cast<int>(rng.Uniform(kChildren));
      auto text = doc.FirstChild(m.children[j].splid);
      if (!text.ok() || !text->has_value()) {
        fail(tag + "text node");
      } else {
        auto value = doc.Get((**text).splid.AttributeChild());
        if (!value.ok() || value->content != m.texts[j]) {
          fail(tag + "text value");
        }
      }
      hops.fetch_add(1, std::memory_order_relaxed);

      // The volatile side may change between any two hops: a node can
      // vanish, but whatever is read must be a whole, consistent node.
      auto w = doc.FirstChild(container);
      if (!w.ok()) {
        fail("volatile first child: " + w.status().ToString());
        continue;
      }
      for (int steps = 0; w->has_value() && steps < 3; ++steps) {
        const Splid ws = (**w).splid;
        auto wattrs = doc.AttributeValues(ws.AttributeChild());
        if (!wattrs.ok()) {
          fail("volatile attributes: " + wattrs.status().ToString());
          break;
        }
        if (!wattrs->empty()) {
          const int k = std::stoi(wattrs->front().second);
          auto wtext = doc.FirstChild(ws);
          if (wtext.ok() && wtext->has_value()) {
            auto value = doc.Get((**wtext).splid.AttributeChild());
            if (value.ok() && value->content != Payload(k)) {
              fail("volatile payload " + std::to_string(k));
            }
          }
          volatile_reads.fetch_add(1, std::memory_order_relaxed);
        }
        w = doc.NextSibling(ws);
        if (!w.ok()) {
          fail("volatile next sibling: " + w.status().ToString());
          break;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);

  // The writer: 600-byte payloads put a handful of volatile children in
  // a leaf, so appends keep splitting leaves and removals free them.
  int appended = 0;
  int live = 0;
  for (int op = 0; op < kWriterOps; ++op) {
    if (live < kMaxVolatile && (live == 0 || op % 3 != 2)) {
      auto added = doc.AppendSubtree(container, VolatileSpec(appended++));
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      ++live;
    } else {
      auto first = doc.FirstChild(container);
      ASSERT_TRUE(first.ok() && first->has_value());
      ASSERT_TRUE(doc.RemoveSubtree((**first).splid).ok());
      --live;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(hops.load(), 0u);
  EXPECT_GT(volatile_reads.load(), 0u);
  EXPECT_TRUE(doc.Validate().ok());
}

}  // namespace
}  // namespace xtc
