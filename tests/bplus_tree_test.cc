// Unit and randomized model tests for the B+-tree.

#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "splid/splid.h"
#include "storage/slotted_page.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace xtc {
namespace {

class BplusTreeTest : public ::testing::Test {
 protected:
  BplusTreeTest() {
    StorageOptions options;
    options.buffer_pool_pages = 256;
    file_ = std::make_unique<PageFile>(options);
    bm_ = std::make_unique<BufferManager>(file_.get(), options);
    tree_ = std::make_unique<BplusTree>(bm_.get());
  }

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BplusTree> tree_;
};

TEST_F(BplusTreeTest, InsertGetDelete) {
  ASSERT_TRUE(tree_->Insert("alpha", "1").ok());
  ASSERT_TRUE(tree_->Insert("beta", "2").ok());
  auto v = tree_->Get("alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_TRUE(tree_->Get("gamma").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("alpha").ok());
  EXPECT_TRUE(tree_->Get("alpha").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("alpha").IsNotFound());
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BplusTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert("k", "1").ok());
  EXPECT_EQ(tree_->Insert("k", "2").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*tree_->Get("k"), "1");
}

TEST_F(BplusTreeTest, UpdateValue) {
  ASSERT_TRUE(tree_->Insert("k", "old").ok());
  ASSERT_TRUE(tree_->Update("k", "new").ok());
  EXPECT_EQ(*tree_->Get("k"), "new");
  EXPECT_TRUE(tree_->Update("missing", "x").IsNotFound());
  // Update to a much larger value (delete + reinsert path).
  ASSERT_TRUE(tree_->Update("k", std::string(500, 'y')).ok());
  EXPECT_EQ(tree_->Get("k")->size(), 500u);
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BplusTreeTest, GrowingUpdatesInFullLeavesKeepNeighbors) {
  // Ascending inserts + rightmost splits leave the left leaves ~full, so
  // growing an existing value overflows its leaf and takes the
  // delete + reinsert + split path. That path once removed a stale slot
  // index and silently dropped the key-order successor of the updated
  // key; every key must survive every update.
  const int kKeys = 2000;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%07d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(tree_->Insert(key(i), "0123456789").ok());
  }
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(tree_->Update(key(i), std::string(120, 'g')).ok());
  }
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    auto v = tree_->Get(key(i));
    ASSERT_TRUE(v.ok()) << "lost key " << key(i);
    EXPECT_EQ(v->size(), i % 7 == 0 ? 120u : 10u) << key(i);
  }
}

TEST_F(BplusTreeTest, LargeEntryAmongSmallOnesSplitsWithoutLoss) {
  // Ascending inserts leave the left leaves full of ~20-byte entries. A
  // 3500-byte entry in the middle of one fits on no two pages with its
  // neighbours; growing or inserting it must still keep every key. An
  // entry no page can hold must fail with the tree unchanged.
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%07d", i);
    return std::string(buf);
  };
  const int kKeys = 2000;  // even keys only
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(tree_->Insert(key(i), "0123456789").ok());
  }
  const std::string grown(3500, 'g'), inserted(3500, 'i');
  const std::string too_large(5000, 'x');
  ASSERT_TRUE(tree_->Update(key(200), grown).ok());
  ASSERT_TRUE(tree_->Insert(key(601), inserted).ok());
  EXPECT_EQ(tree_->Update(key(1000), too_large).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree_->Insert(key(1001), too_large).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(kKeys / 2 + 1));
  for (int i = 0; i < kKeys; i += 2) {
    auto v = tree_->Get(key(i));
    ASSERT_TRUE(v.ok()) << "lost key " << key(i);
    EXPECT_EQ(*v, i == 200 ? grown : "0123456789") << key(i);
  }
  EXPECT_EQ(*tree_->Get(key(601)), inserted);
  EXPECT_FALSE(tree_->Contains(key(1001)));
  uint64_t scanned = 0;
  auto it = tree_->NewIterator();
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++scanned;
  EXPECT_TRUE(it.status().ok());
  EXPECT_EQ(scanned, tree_->size());
}

TEST(BplusTreeSplitFailureTest, FailedPageAllocationLeavesTheLeafIntact) {
  // A leaf split that cannot allocate its right page (every frame of the
  // pool pinned) must fail before it changes any page: the old value
  // stays readable and the entry count unchanged.
  StorageOptions options;
  options.buffer_pool_pages = 4;
  PageFile file(options);
  BufferManager bm(&file, options);
  BplusTree tree(&bm);
  auto key = [](int i) { return "k" + std::to_string(1000 + i); };
  int n = 0;
  while (tree.Height() == 1) {
    ASSERT_TRUE(tree.Insert(key(n++), std::string(100, 'v')).ok());
  }
  // Root + two leaves hold three frames; pin the fourth. The target key
  // sits in the full left leaf, so a split pins it, its right neighbour
  // and the root (all resident) and then finds no frame for New.
  const uint64_t count = tree.size();
  std::vector<PageGuard> pins;
  auto pin = bm.New();
  ASSERT_TRUE(pin.ok());
  pins.push_back(std::move(*pin));
  const uint64_t misses = bm.misses();
  const std::string grown(2000, 'g');
  EXPECT_EQ(tree.Update(key(n / 4), grown).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(bm.misses(), misses);  // every fetch hit: New failed
  EXPECT_EQ(tree.size(), count);
  EXPECT_EQ(*tree.Get(key(n / 4)), std::string(100, 'v'));
  EXPECT_FALSE(tree.Insert(key(n / 4) + "a", grown).ok());
  EXPECT_EQ(tree.size(), count);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(*tree.Get(key(i)), std::string(100, 'v')) << key(i);
  }

  pins.clear();
  ASSERT_TRUE(tree.Update(key(n / 4), grown).ok());
  EXPECT_EQ(*tree.Get(key(n / 4)), grown);
  EXPECT_EQ(tree.size(), count);
}

TEST_F(BplusTreeTest, SplitsGrowTheTree) {
  for (int i = 0; i < 3000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(tree_->Insert(key, "value" + std::to_string(i)).ok()) << i;
  }
  EXPECT_GT(tree_->Height(), 1);
  EXPECT_EQ(tree_->size(), 3000u);
  for (int i = 0; i < 3000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    auto v = tree_->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST_F(BplusTreeTest, IteratorFullScanInOrder) {
  for (int i = 999; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree_->Insert(key, std::to_string(i)).ok());
  }
  auto it = tree_->NewIterator();
  int count = 0;
  std::string last;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_GT(it.key(), last);
    last = it.key();
    ++count;
  }
  EXPECT_EQ(count, 1000);
  // Backward.
  count = 0;
  for (it.SeekToLast(); it.Valid(); it.Prev()) ++count;
  EXPECT_EQ(count, 1000);
}

TEST_F(BplusTreeTest, SeekSemantics) {
  ASSERT_TRUE(tree_->Insert("b", "1").ok());
  ASSERT_TRUE(tree_->Insert("d", "2").ok());
  ASSERT_TRUE(tree_->Insert("f", "3").ok());
  auto it = tree_->NewIterator();
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
  it.SeekForPrev("e");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.SeekForPrev("f");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "f");
  it.SeekForPrev("a");
  EXPECT_FALSE(it.Valid());
}

TEST_F(BplusTreeTest, RangeDeleteLeavesConsistentChain) {
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(tree_->Insert(key, "v").ok());
  }
  // Delete a contiguous range (simulates subtree deletion).
  for (int i = 500; i < 1500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(tree_->Delete(key).ok()) << key;
  }
  EXPECT_EQ(tree_->size(), 1000u);
  auto it = tree_->NewIterator();
  int count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 1000);
  // The gap is bridged.
  it.Seek("k00500");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k01500");
  it.SeekForPrev("k01499");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k00499");
}

TEST_F(BplusTreeTest, DeleteEverythingThenReuse) {
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Insert("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(tree_->size(), 0u);
  auto it = tree_->NewIterator();
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  ASSERT_TRUE(tree_->Insert("fresh", "start").ok());
  EXPECT_EQ(*tree_->Get("fresh"), "start");
}

TEST_F(BplusTreeTest, SplidKeysScanInDocumentOrder) {
  // The document-store use case: SPLID-encoded keys, depth-first order.
  SplidGenerator gen(2);
  std::vector<Splid> labels;
  Splid root = Splid::Root();
  labels.push_back(root);
  for (int i = 0; i < 30; ++i) {
    Splid child = gen.InitialChild(root, static_cast<size_t>(i));
    labels.push_back(child);
    for (int j = 0; j < 10; ++j) {
      labels.push_back(gen.InitialChild(child, static_cast<size_t>(j)));
    }
  }
  // Insert shuffled.
  Rng rng(5);
  std::vector<Splid> shuffled = labels;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const Splid& s : shuffled) {
    ASSERT_TRUE(tree_->Insert(s.Encode(), s.ToString()).ok());
  }
  // Scan == document order.
  std::sort(labels.begin(), labels.end(),
            [](const Splid& a, const Splid& b) { return a.Compare(b) < 0; });
  auto it = tree_->NewIterator();
  size_t idx = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++idx) {
    ASSERT_LT(idx, labels.size());
    EXPECT_EQ(it.value(), labels[idx].ToString());
  }
  EXPECT_EQ(idx, labels.size());
}

TEST_F(BplusTreeTest, SequentialLoadReachesHighOccupancy) {
  // Document bulk loads insert in ascending SPLID order; the
  // rightmost-split policy must keep pages nearly full (paper §3.1
  // reports > 96 % storage occupancy).
  for (int i = 0; i < 20000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    ASSERT_TRUE(tree_->Insert(key, "0123456789").ok());
  }
  auto occ = tree_->MeasureOccupancy();
  EXPECT_GT(occ.ratio(), 0.90);
  EXPECT_GT(occ.leaf_pages, 50u);
  // Random-order inserts land near the classic ~70 %.
  StorageOptions options;
  options.buffer_pool_pages = 4096;
  PageFile file2(options);
  BufferManager bm2(&file2, options);
  BplusTree random_tree(&bm2);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%020llu",
                  static_cast<unsigned long long>(rng.Next()));
    ASSERT_TRUE(random_tree.Insert(key, "0123456789").ok());
  }
  auto occ2 = random_tree.MeasureOccupancy();
  EXPECT_GT(occ2.ratio(), 0.45);
  EXPECT_LT(occ2.ratio(), 0.90);
}

TEST_F(BplusTreeTest, PrefixCompressionDisabledStillCorrect) {
  StorageOptions options;
  PageFile file(options);
  BufferManager bm(&file, options);
  BplusTree plain(&bm, /*prefix_compression=*/false);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(plain
                    .Insert("common/prefix/key" + std::to_string(100000 + i),
                            "v" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 2000; i += 97) {
    auto v = plain.Get("common/prefix/key" + std::to_string(100000 + i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  // The uncompressed tree needs at least as many pages.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_
                    ->Insert("common/prefix/key" + std::to_string(100000 + i),
                             "v" + std::to_string(i))
                    .ok());
  }
  EXPECT_GE(plain.MeasureOccupancy().leaf_pages,
            tree_->MeasureOccupancy().leaf_pages);
}

TEST_F(BplusTreeTest, RandomizedModelCheck) {
  Rng rng(20260707);
  std::map<std::string, std::string> model;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.Uniform(4));
    std::string key = "key" + std::to_string(rng.Uniform(3000));
    if (op <= 1) {
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      if (model.count(key)) {
        ASSERT_TRUE(tree_->Update(key, value).ok());
      } else {
        ASSERT_TRUE(tree_->Insert(key, value).ok());
      }
      model[key] = value;
    } else if (op == 2) {
      Status st = tree_->Delete(key);
      EXPECT_EQ(st.ok(), model.erase(key) > 0) << key;
    } else {
      auto v = tree_->Get(key);
      auto it = model.find(key);
      ASSERT_EQ(v.ok(), it != model.end()) << key;
      if (v.ok()) {
        EXPECT_EQ(*v, it->second);
      }
    }
    if (step % 2500 == 0) {
      ASSERT_EQ(tree_->size(), model.size());
      auto it = tree_->NewIterator();
      auto mit = model.begin();
      for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
        ASSERT_NE(mit, model.end());
        ASSERT_EQ(it.key(), mit->first);
        ASSERT_EQ(it.value(), mit->second);
      }
      ASSERT_EQ(mit, model.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Leaf hints. A descent that uses its hint fixes one page; one whose hint
// is refused fixes the hinted leaf and then a whole root descent
// (1 + Height()); one with no matching hint fixes Height() pages. The
// page-fix count therefore tells the three apart.
// ---------------------------------------------------------------------------

class LeafHintTest : public ::testing::Test {
 protected:
  LeafHintTest() : faults_(11) {
    StorageOptions options;
    options.buffer_pool_pages = 256;
    options.fault_injector = &faults_;
    file_ = std::make_unique<PageFile>(options);
    bm_ = std::make_unique<BufferManager>(file_.get(), options);
    tree_ = std::make_unique<BplusTree>(bm_.get());
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    return buf;
  }
  static int Num(const std::string& key) { return std::stoi(key.substr(1)); }

  // Even keys 0, 2, ..., 2(n-1), ascending: every leaf but the last is
  // left full by the rightmost split.
  void Load(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(tree_->Insert(Key(2 * i), std::string(40, 'v')).ok());
    }
  }

  // Page fixes (hits + misses) made by f().
  template <typename F>
  uint64_t Fixes(F&& f) {
    const uint64_t before = bm_->hits() + bm_->misses();
    f();
    return bm_->hits() + bm_->misses() - before;
  }

  uint64_t GetFixes(const std::string& key) {
    return Fixes([&] { (void)tree_->Get(key); });
  }

  // The keys of every leaf, left to right, read off the pages directly
  // rather than through the tree's descent code.
  std::vector<std::vector<std::string>> Leaves() {
    std::vector<std::vector<std::string>> out;
    PageId id = tree_->root();
    for (;;) {
      auto guard = bm_->Fetch(id);
      EXPECT_TRUE(guard.ok());
      SlottedPage sp(guard->page());
      if (sp.type() == PageType::kLeaf) break;
      id = sp.leftmost_child();
    }
    while (id != kInvalidPageId) {
      auto guard = bm_->Fetch(id);
      EXPECT_TRUE(guard.ok());
      SlottedPage sp(guard->page());
      std::vector<std::string> keys;
      for (int i = 0; i < sp.num_slots(); ++i) keys.push_back(sp.FullKey(i));
      out.push_back(std::move(keys));
      id = sp.next();
    }
    return out;
  }

  FaultInjector faults_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BplusTree> tree_;
};

TEST_F(LeafHintTest, PointReadsInTheHintedLeafFixOnePage) {
  Load(2000);
  ASSERT_GE(tree_->Height(), 2);
  const auto leaves = Leaves();
  const std::vector<std::string>& leaf = leaves[leaves.size() / 2];
  ASSERT_GE(leaf.size(), 3u);
  const std::string key = leaf[1];
  ASSERT_TRUE(tree_->Get(key).ok());

  EXPECT_EQ(GetFixes(key), 1u);
  EXPECT_EQ(Fixes([&] { EXPECT_TRUE(tree_->Contains(key)); }), 1u);
  EXPECT_EQ(Fixes([&] {
              EXPECT_TRUE(tree_->Update(key, std::string(40, 'u')).ok());
            }),
            1u);
  EXPECT_EQ(*tree_->Get(key), std::string(40, 'u'));
  auto it = tree_->NewIterator();
  EXPECT_EQ(Fixes([&] { it.Seek(key); }), 1u);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), key);
  EXPECT_EQ(Fixes([&] { it.SeekForPrev(key); }), 1u);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), key);
  // An absent key strictly between two of the leaf's keys is decided by
  // the leaf alone.
  const std::string gap = Key(Num(leaf[0]) + 1);
  EXPECT_EQ(Fixes([&] {
              EXPECT_TRUE(tree_->Get(gap).status().IsNotFound());
            }),
            1u);
}

TEST_F(LeafHintTest, KeysJustOutsideTheHintedLeafDescendFromTheRoot) {
  Load(2000);
  const uint64_t h = static_cast<uint64_t>(tree_->Height());
  ASSERT_GE(h, 2u);
  const auto leaves = Leaves();
  const std::vector<std::string>& a = leaves[3];
  const std::vector<std::string>& b = leaves[4];
  ASSERT_GE(a.size(), 2u);
  ASSERT_GE(b.size(), 2u);
  // Between a's last key and b's first: above the one, below the other.
  const std::string gap = Key(Num(a.back()) + 1);
  ASSERT_LT(gap, b.front());

  ASSERT_TRUE(tree_->Get(a[1]).ok());
  EXPECT_EQ(GetFixes(gap), 1 + h);
  ASSERT_TRUE(tree_->Get(b[1]).ok());
  EXPECT_EQ(GetFixes(gap), 1 + h);

  // Make room in a (no page is allocated or freed, so the epoch holds)
  // and store the gap key there. From b's hint, a reader must still find
  // it: b's slot 0 is not proof that b owns the key.
  ASSERT_TRUE(tree_->Delete(a.front()).ok());
  ASSERT_TRUE(tree_->Insert(gap, "g").ok());
  ASSERT_TRUE(tree_->Get(b[1]).ok());
  uint64_t fixes = Fixes([&] {
    auto v = tree_->Get(gap);
    ASSERT_TRUE(v.ok()) << v.status().message();
    EXPECT_EQ(*v, "g");
  });
  EXPECT_EQ(fixes, 1 + h);
  auto it = tree_->NewIterator();
  it.Seek(gap);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), gap);
  ASSERT_TRUE(tree_->Get(b[1]).ok());
  it.SeekForPrev(gap);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), gap);
  // From a's hint the key is found in the leaf itself.
  ASSERT_TRUE(tree_->Get(a[1]).ok());
  EXPECT_EQ(GetFixes(gap), 1u);
}

TEST_F(LeafHintTest, EmptyLeafRefusesTheHint) {
  EXPECT_TRUE(tree_->Get("a").status().IsNotFound());
  EXPECT_EQ(Fixes([&] { EXPECT_TRUE(tree_->Get("a").status().IsNotFound()); }),
            2u);
  ASSERT_TRUE(tree_->Insert("a", "1").ok());
  EXPECT_EQ(Fixes([&] { EXPECT_EQ(*tree_->Get("a"), "1"); }), 1u);
}

TEST_F(LeafHintTest, LeafSplitRetiresHints) {
  Load(2000);
  const auto leaves = Leaves();
  const std::vector<std::string>& leaf = leaves[leaves.size() / 2];
  const std::string key = leaf[1];
  ASSERT_TRUE(tree_->Get(key).ok());
  // The leaf is full: a large value inside its range splits it.
  ASSERT_TRUE(
      tree_->Insert(Key(Num(leaf[0]) + 1), std::string(1000, 'x')).ok());
  ASSERT_GT(Leaves().size(), leaves.size());
  EXPECT_EQ(Fixes([&] { EXPECT_EQ(*tree_->Get(key), std::string(40, 'v')); }),
            static_cast<uint64_t>(tree_->Height()));
}

TEST_F(LeafHintTest, RootSplitRetiresHints) {
  ASSERT_TRUE(tree_->Insert(Key(0), "zero").ok());
  ASSERT_TRUE(tree_->Insert(Key(2), "two").ok());
  ASSERT_TRUE(tree_->Get(Key(0)).ok());
  ASSERT_EQ(GetFixes(Key(0)), 1u);  // root leaf, hinted
  int i = 2;
  while (tree_->Height() == 1) {
    ASSERT_TRUE(tree_->Insert(Key(2 * i++), std::string(40, 'v')).ok());
  }
  EXPECT_EQ(Fixes([&] { EXPECT_EQ(*tree_->Get(Key(0)), "zero"); }), 2u);
}

TEST_F(LeafHintTest, FreedLeafRetiresHints) {
  Load(2000);
  const auto leaves = Leaves();
  const std::vector<std::string>& victim = leaves[1];
  ASSERT_TRUE(tree_->Get(victim[1]).ok());
  for (const std::string& k : victim) ASSERT_TRUE(tree_->Delete(k).ok());
  ASSERT_EQ(Leaves().size(), leaves.size() - 1);
  EXPECT_EQ(Fixes([&] {
              EXPECT_TRUE(tree_->Get(victim[1]).status().IsNotFound());
            }),
            static_cast<uint64_t>(tree_->Height()));
  EXPECT_TRUE(tree_->Get(leaves[0][0]).ok());
  EXPECT_TRUE(tree_->Get(leaves[2][0]).ok());
}

TEST_F(LeafHintTest, RootCollapseRetiresHints) {
  int i = 0;
  while (Leaves().size() < 2) {
    ASSERT_TRUE(tree_->Insert(Key(2 * i++), std::string(40, 'v')).ok());
  }
  ASSERT_EQ(tree_->Height(), 2);
  const auto leaves = Leaves();
  ASSERT_TRUE(tree_->Get(leaves[0][1]).ok());
  for (const std::string& k : leaves[0]) ASSERT_TRUE(tree_->Delete(k).ok());
  ASSERT_EQ(tree_->Height(), 1);
  // The hinted leaf is freed and the surviving leaf is the root: one fix.
  EXPECT_EQ(Fixes([&] {
              EXPECT_TRUE(tree_->Get(leaves[0][1]).status().IsNotFound());
            }),
            1u);
  EXPECT_TRUE(tree_->Get(leaves[1][0]).ok());
}

TEST_F(LeafHintTest, TreeRebuiltAtTheSameAddressIgnoresOldHints) {
  std::optional<BplusTree> tree;
  tree.emplace(bm_.get());
  ASSERT_TRUE(tree->Insert("k", "old").ok());
  ASSERT_EQ(*tree->Get("k"), "old");
  const BplusTree* address = &*tree;
  tree.reset();
  tree.emplace(bm_.get());
  ASSERT_EQ(&*tree, address);
  ASSERT_TRUE(tree->Insert("k", "new").ok());
  // The old leaf is still resident and still holds "k": only the epoch
  // keeps the new tree from reading it.
  EXPECT_EQ(*tree->Get("k"), "new");
}

TEST_F(LeafHintTest, InvalidateHintsRetiresEveryHint) {
  Load(2000);
  const std::string key = Leaves()[5][1];
  ASSERT_TRUE(tree_->Get(key).ok());
  ASSERT_EQ(GetFixes(key), 1u);
  tree_->InvalidateHints();
  EXPECT_EQ(GetFixes(key), static_cast<uint64_t>(tree_->Height()));
}

TEST_F(LeafHintTest, FetchErrorOnTheHintedLeafIsReturned) {
  Load(2000);
  const std::string key = Leaves()[5][1];
  ASSERT_TRUE(tree_->Get(key).ok());
  FaultPointConfig once;
  once.probability = 1.0;
  once.one_shot = true;

  // One injected fault: a silent fall-back to the root would succeed.
  faults_.Arm(fault_points::kBufferPin, once);
  EXPECT_EQ(tree_->Get(key).status().code(), StatusCode::kIoError);
  EXPECT_EQ(faults_.injections(fault_points::kBufferPin), 1u);
  EXPECT_TRUE(tree_->Get(key).ok());

  faults_.Arm(fault_points::kBufferPin, once);
  EXPECT_EQ(tree_->Update(key, "u").code(), StatusCode::kIoError);

  faults_.Arm(fault_points::kBufferPin, once);
  auto it = tree_->NewIterator();
  it.Seek(key);
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(it.status().code(), StatusCode::kIoError);
  it.Seek(key);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), key);
}

}  // namespace
}  // namespace xtc
