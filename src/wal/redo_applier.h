// RedoApplier: the one redo engine shared by restart recovery
// (src/wal/recovery.cc) and follower tailing (src/repl/follower.cc), so
// the two paths cannot drift apart.
//
// Redo is conditioned per page: a logged after-image is applied iff the
// stored page does not already reflect the record (stored page_lsn <
// record end offset), and unconditionally when the stored page is torn
// (checksum mismatch => kDataLoss) — the full-page image repairs it.
// Where the repaired bytes land is a RedoPageSink: restart recovery
// writes straight to the reopened PageFile, the follower applies through
// its buffer pool so replica reads see the tailed state without a flush.

#ifndef XTC_WAL_REDO_APPLIER_H_
#define XTC_WAL_REDO_APPLIER_H_

#include <cstdint>
#include <vector>

#include "storage/page_file.h"
#include "util/status.h"
#include "wal/wal.h"

namespace xtc {

/// Where redo lands one logged after-image.
class RedoPageSink {
 public:
  virtual ~RedoPageSink() = default;

  /// Applies `bytes` (a full page image covered through `end_lsn`) to
  /// page `id` iff the stored page does not already reflect it; *applied
  /// reports whether the write happened. Must allocate the page when the
  /// store lost it and treat a torn stored page as "apply".
  virtual Status ApplyImage(PageId id, Lsn end_lsn, const std::string& bytes,
                            bool* applied) = 0;
};

/// Sink over a raw PageFile (restart recovery: no buffer pool exists
/// yet).
class FilePageSink : public RedoPageSink {
 public:
  explicit FilePageSink(PageFile* file) : file_(file) {}
  Status ApplyImage(PageId id, Lsn end_lsn, const std::string& bytes,
                    bool* applied) override;

 private:
  PageFile* file_;
};

struct RedoApplierStats {
  uint64_t records_redone = 0;  // records with at least one applied page
  uint64_t pages_redone = 0;    // page images actually written
  uint64_t pages_skipped = 0;   // images the store already reflected
};

class RedoApplier {
 public:
  explicit RedoApplier(RedoPageSink* sink) : sink_(sink) {}

  /// Applies one update record's page images in order (follower
  /// tailing applies records one by one as they arrive). Non-update
  /// records are ignored. Returns whether any page applied.
  StatusOr<bool> ApplyRecord(const WalRecord& record);

  /// Batch redo (restart recovery): ApplyRecord over every record with
  /// lsn >= redo_start, in log order. Stops at the first error — the
  /// sink's store may then be partially repaired, which the next redo
  /// pass completes.
  Status ApplyAll(const std::vector<WalRecord>& records, Lsn redo_start);

  const RedoApplierStats& stats() const { return stats_; }

 private:
  RedoPageSink* sink_;
  RedoApplierStats stats_;
};

}  // namespace xtc

#endif  // XTC_WAL_REDO_APPLIER_H_
