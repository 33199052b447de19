// Span tracing for the benchmark's traced run, recorded from outside the
// engine: decorators around the TaMixDom and XmlProtocol interfaces, and
// direct timing of the transaction, checkpoint and recovery calls the
// benchmark makes itself.
//
// Each thread records into its own buffer (no sharing on the hot path).
// A span knows its kind, its transaction and its parent (the span open on
// the same thread when it began); its self time is its duration minus the
// time covered by its children. Every span is folded into per-kind totals
// as it ends; the first spans of each thread are also kept verbatim, with
// parent links, and written out at the end of the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lock/xml_protocol.h"
#include "tamix/dom_api.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  // One whole transaction, begin to commit acknowledged (or abort).
  kTxn,
  // TaMix bodies (CLUSTER1 never runs TAdelBook).
  kBodyQueryBook,
  kBodyChapter,
  kBodyRenameTopic,
  kBodyLendAndReturn,
  // Transaction boundaries: TransactionManager in process, Client over
  // the wire.
  kTxBegin,
  kTxCommit,
  kTxAbort,
  // TaMixDom operations (LocalDom: node layer; RemoteDom: round trips).
  // Kept contiguous: IsDomSpan tests this range.
  kDomGetElementById,
  kDomGetAttributes,
  kDomGetFirstChild,
  kDomGetLastChild,
  kDomGetNextSibling,
  kDomGetChildNodes,
  kDomGetTextContent,
  kDomDeclareUpdateIntent,
  kDomUpdateText,
  kDomSetAttribute,
  kDomAppendSubtree,
  kDomDeleteSubtree,
  kDomRename,
  // XmlProtocol meta-lock requests and release events. Kept contiguous:
  // IsLockSpan tests this range.
  kLockNodeRead,
  kLockNodeUpdate,
  kLockNodeWrite,
  kLockLevelRead,
  kLockTreeRead,
  kLockTreeUpdate,
  kLockTreeWrite,
  kLockEdge,
  kLockPrepareSubtreeDelete,
  kLockIdValue,
  kLockEndOperation,
  kLockReleaseAll,
  // Background fuzzy checkpoint (FlushAll + LogCheckpoint).
  kCheckpoint,
  // Restart: OpenDatabase, the log scan alone, the structural audit alone.
  kRecoveryOpen,
  kRecoveryScan,
  kRecoveryAudit,
  kCount,
};
inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);

std::string_view SpanName(SpanKind kind);
bool IsDomSpan(SpanKind kind);
bool IsLockSpan(SpanKind kind);

/// Per-kind totals. `samples_ns` holds every duration, so percentiles
/// are exact.
struct SpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<int64_t> samples_ns;
};

/// A process creates at most one Tracer: each thread caches its buffer
/// of that tracer in a thread_local.
class Tracer {
 public:
  /// Keeps up to `keep_per_thread` spans of each thread verbatim.
  explicit Tracer(size_t keep_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; End closes the innermost one
  /// (spans of one thread nest strictly).
  void Begin(SpanKind kind, uint64_t tx);
  void End();

  /// Sums every thread's totals. Call after all recording threads have
  /// stopped.
  std::array<SpanStats, kNumSpanKinds> Totals() const;

  /// Writes the kept spans as tab-separated lines:
  /// thread, span, parent (-1 = none), tx, kind, start_ns, end_ns.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Kept {
    uint64_t tx;
    int32_t parent;
    SpanKind kind;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept;  // index into `kept`, -1 when not kept
  };
  struct ThreadBuffer {
    std::vector<Open> stack;
    std::array<SpanStats, kNumSpanKinds> stats;
    std::vector<Kept> kept;
  };

  ThreadBuffer* Local();

  const size_t keep_per_thread_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint64_t tx) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(kind, tx);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Times every TaMixDom call of one transaction.
class TracedDom : public xtc::TaMixDom {
 public:
  TracedDom(xtc::TaMixDom* inner, Tracer* tracer, uint64_t tx)
      : inner_(inner), tracer_(tracer), tx_(tx) {}

  xtc::StatusOr<std::optional<xtc::Splid>> GetElementById(
      std::string_view id) override;
  xtc::StatusOr<std::vector<std::pair<std::string, std::string>>>
  GetAttributes(const xtc::Splid& element) override;
  xtc::StatusOr<std::optional<xtc::DomNode>> GetFirstChild(
      const xtc::Splid& parent) override;
  xtc::StatusOr<std::optional<xtc::DomNode>> GetLastChild(
      const xtc::Splid& parent) override;
  xtc::StatusOr<std::optional<xtc::DomNode>> GetNextSibling(
      const xtc::Splid& node) override;
  xtc::StatusOr<std::vector<xtc::DomNode>> GetChildNodes(
      const xtc::Splid& parent) override;
  xtc::StatusOr<std::string> GetTextContent(const xtc::Splid& text) override;

  xtc::Status DeclareUpdateIntent(const xtc::Splid& node) override;
  xtc::Status UpdateText(const xtc::Splid& text,
                         std::string_view content) override;
  xtc::Status SetAttribute(const xtc::Splid& element, std::string_view name,
                           std::string_view value) override;
  xtc::StatusOr<xtc::Splid> AppendSubtree(
      const xtc::Splid& parent, const xtc::SubtreeSpec& spec) override;
  xtc::Status DeleteSubtree(const xtc::Splid& root) override;
  xtc::Status Rename(const xtc::Splid& element,
                     std::string_view new_name) override;

 private:
  xtc::TaMixDom* inner_;
  Tracer* tracer_;
  uint64_t tx_;
};

/// Times every meta-lock request and release event of a protocol. The
/// wrapped protocol keeps its own lock table and document accessor.
class TracedProtocol : public xtc::XmlProtocol {
 public:
  TracedProtocol(xtc::XmlProtocol* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  bool supports_lock_depth() const override {
    return inner_->supports_lock_depth();
  }
  xtc::LockTable& table() override { return inner_->table(); }
  void set_document_accessor(xtc::DocumentAccessor* accessor) override {
    inner_->set_document_accessor(accessor);
  }

  xtc::Status NodeRead(uint64_t tx, const xtc::Splid& node,
                       xtc::AccessKind access, xtc::LockDuration dur) override;
  xtc::Status NodeUpdate(uint64_t tx, const xtc::Splid& node,
                         xtc::LockDuration dur) override;
  xtc::Status NodeWrite(uint64_t tx, const xtc::Splid& node,
                        xtc::AccessKind access, xtc::LockDuration dur) override;
  xtc::Status LevelRead(uint64_t tx, const xtc::Splid& node,
                        xtc::LockDuration dur) override;
  xtc::Status TreeRead(uint64_t tx, const xtc::Splid& root,
                       xtc::LockDuration dur) override;
  xtc::Status TreeUpdate(uint64_t tx, const xtc::Splid& root,
                         xtc::LockDuration dur) override;
  xtc::Status TreeWrite(uint64_t tx, const xtc::Splid& root,
                        xtc::LockDuration dur) override;
  xtc::Status EdgeLock(uint64_t tx, const xtc::Splid& anchor,
                       xtc::EdgeKind kind, bool exclusive,
                       xtc::LockDuration dur) override;
  xtc::Status PrepareSubtreeDelete(uint64_t tx, const xtc::Splid& root,
                                   xtc::LockDuration dur) override;
  xtc::Status IdValueLock(uint64_t tx, std::string_view id, bool exclusive,
                          xtc::LockDuration dur) override;
  void EndOperation(uint64_t tx) override;
  void ReleaseAll(uint64_t tx) override;

 private:
  xtc::XmlProtocol* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
