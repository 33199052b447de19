#include "wal/redo_applier.h"

#include <cstring>

#include "util/check.h"

namespace xtc {

Status FilePageSink::ApplyImage(PageId id, Lsn end_lsn,
                                const std::string& bytes, bool* applied) {
  *applied = false;
  XTC_CHECK(bytes.size() == file_->page_size(),
            "redo: logged page size does not match the store");
  file_->EnsureAllocated(id);
  Page current(file_->page_size());
  Status read = file_->Read(id, &current);
  bool apply;
  if (read.ok()) {
    apply = ReadPageLsn(current) < end_lsn;
  } else if (read.IsDataLoss()) {
    apply = true;  // torn page: the logged after-image repairs it
  } else {
    return read.Annotate("redo: read of page " + std::to_string(id));
  }
  if (!apply) return Status::OK();
  Page image(file_->page_size());
  std::memcpy(image.data(), bytes.data(), bytes.size());
  Status write = file_->Write(id, image);
  if (!write.ok()) {
    return write.Annotate("redo: write of page " + std::to_string(id));
  }
  *applied = true;
  return Status::OK();
}

StatusOr<bool> RedoApplier::ApplyRecord(const WalRecord& record) {
  if (record.type != WalRecordType::kUpdate) return false;
  bool any = false;
  for (const WalPageImage& img : record.pages) {
    bool applied = false;
    XTC_RETURN_IF_ERROR(
        sink_->ApplyImage(img.id, record.end_lsn, img.bytes, &applied));
    if (applied) {
      ++stats_.pages_redone;
      any = true;
    } else {
      ++stats_.pages_skipped;
    }
  }
  if (any) ++stats_.records_redone;
  return any;
}

Status RedoApplier::ApplyAll(const std::vector<WalRecord>& records,
                             Lsn redo_start) {
  for (const WalRecord& r : records) {
    if (r.lsn < redo_start) continue;
    XTC_RETURN_IF_ERROR(ApplyRecord(r).status());
  }
  return Status::OK();
}

}  // namespace xtc
