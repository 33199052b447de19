// RedoApplier unit tests: conditioned page redo and torn-page repair.

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "wal/redo_applier.h"
#include "wal/wal.h"

namespace xtc {
namespace {

constexpr uint32_t kPageSize = 128;

/// Page bytes with a recognizable fill, the LSN stamped where redo
/// compares it, and byte 0 carrying `tag` for content assertions.
std::string PageBytes(char tag, Lsn end_lsn) {
  std::string bytes(kPageSize, tag);
  std::memcpy(bytes.data() + kPageLsnOffset, &end_lsn, sizeof(end_lsn));
  return bytes;
}

WalRecord UpdateRecord(Lsn lsn, Lsn end_lsn,
                       std::vector<std::pair<PageId, char>> pages) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.lsn = lsn;
  r.end_lsn = end_lsn;
  for (const auto& [id, tag] : pages) {
    r.pages.push_back(WalPageImage{id, PageBytes(tag, end_lsn)});
  }
  return r;
}

char TagOf(PageFile* file, PageId id) {
  Page page(kPageSize);
  Status st = file->Read(id, &page);
  EXPECT_TRUE(st.ok()) << st.message();
  return static_cast<char>(page.data()[0]);
}

TEST(RedoApplierTest, AppliesOnlyWhatTheStoreIsMissing) {
  StorageOptions options;
  options.page_size = kPageSize;
  PageFile file(options);
  FilePageSink sink(&file);

  // Pre-store page 1 already reflecting LSN 100; page 2 stale at 10.
  file.EnsureAllocated(2);
  Page fresh(kPageSize);
  std::memcpy(fresh.data(), PageBytes('F', 100).data(), kPageSize);
  ASSERT_TRUE(file.Write(1, fresh).ok());
  Page stale(kPageSize);
  std::memcpy(stale.data(), PageBytes('S', 10).data(), kPageSize);
  ASSERT_TRUE(file.Write(2, stale).ok());

  RedoApplier redo(&sink);
  auto applied = redo.ApplyRecord(UpdateRecord(50, 100, {{1, 'A'}, {2, 'B'}}));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_TRUE(*applied);
  EXPECT_EQ(TagOf(&file, 1), 'F');  // already reflected: skipped
  EXPECT_EQ(TagOf(&file, 2), 'B');  // stale: overwritten
  EXPECT_EQ(redo.stats().pages_redone, 1u);
  EXPECT_EQ(redo.stats().pages_skipped, 1u);
  EXPECT_EQ(redo.stats().records_redone, 1u);

  // Non-update records are ignored outright.
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  auto ignored = redo.ApplyRecord(commit);
  ASSERT_TRUE(ignored.ok());
  EXPECT_FALSE(*ignored);
}

TEST(RedoApplierTest, TornStoredPageIsRepairedUnconditionally) {
  StorageOptions options;
  options.page_size = kPageSize;
  PageFile pristine(options);
  pristine.EnsureAllocated(1);
  Page good(kPageSize);
  // A very high stored LSN would normally suppress redo — but the page
  // is torn (corrupted after checksum stamping), so redo must repair it.
  std::memcpy(good.data(), PageBytes('G', 999).data(), kPageSize);
  ASSERT_TRUE(pristine.Write(1, good).ok());
  PageFileImage image = pristine.CloneImage();
  image.pages[0][60] ^= 0x5a;  // tear page 1 behind the file's back
  PageFile file(options, image);
  Page check(kPageSize);
  ASSERT_TRUE(file.Read(1, &check).IsDataLoss());

  FilePageSink sink(&file);
  RedoApplier redo(&sink);
  auto applied = redo.ApplyRecord(UpdateRecord(10, 20, {{1, 'R'}}));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_TRUE(*applied);
  EXPECT_EQ(TagOf(&file, 1), 'R');
}

}  // namespace
}  // namespace xtc
