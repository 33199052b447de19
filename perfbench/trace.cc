#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kBodyQueryBook: return "body.query_book";
    case SpanKind::kBodyChapter: return "body.chapter";
    case SpanKind::kBodyRenameTopic: return "body.rename_topic";
    case SpanKind::kBodyLendAndReturn: return "body.lend_and_return";
    case SpanKind::kTxBegin: return "tx.begin";
    case SpanKind::kTxCommit: return "tx.commit";
    case SpanKind::kTxAbort: return "tx.abort";
    case SpanKind::kDomGetElementById: return "get_element_by_id";
    case SpanKind::kDomGetAttributes: return "get_attributes";
    case SpanKind::kDomGetFirstChild: return "get_first_child";
    case SpanKind::kDomGetLastChild: return "get_last_child";
    case SpanKind::kDomGetNextSibling: return "get_next_sibling";
    case SpanKind::kDomGetChildNodes: return "get_child_nodes";
    case SpanKind::kDomGetTextContent: return "get_text_content";
    case SpanKind::kDomDeclareUpdateIntent: return "declare_update_intent";
    case SpanKind::kDomUpdateText: return "update_text";
    case SpanKind::kDomSetAttribute: return "set_attribute";
    case SpanKind::kDomAppendSubtree: return "append_subtree";
    case SpanKind::kDomDeleteSubtree: return "delete_subtree";
    case SpanKind::kDomRename: return "rename";
    case SpanKind::kLockNodeRead: return "lock.node_read";
    case SpanKind::kLockNodeUpdate: return "lock.node_update";
    case SpanKind::kLockNodeWrite: return "lock.node_write";
    case SpanKind::kLockLevelRead: return "lock.level_read";
    case SpanKind::kLockTreeRead: return "lock.tree_read";
    case SpanKind::kLockTreeUpdate: return "lock.tree_update";
    case SpanKind::kLockTreeWrite: return "lock.tree_write";
    case SpanKind::kLockEdge: return "lock.edge";
    case SpanKind::kLockPrepareSubtreeDelete: return "lock.prepare_delete";
    case SpanKind::kLockIdValue: return "lock.id_value";
    case SpanKind::kLockEndOperation: return "lock.end_operation";
    case SpanKind::kLockReleaseAll: return "lock.release_all";
    case SpanKind::kCheckpoint: return "checkpoint";
    case SpanKind::kRecoveryOpen: return "recovery.open";
    case SpanKind::kRecoveryScan: return "recovery.scan";
    case SpanKind::kRecoveryAudit: return "recovery.audit";
    case SpanKind::kCount: break;
  }
  return "?";
}

bool IsDomSpan(SpanKind kind) {
  return kind >= SpanKind::kDomGetElementById && kind <= SpanKind::kDomRename;
}

bool IsLockSpan(SpanKind kind) {
  return kind >= SpanKind::kLockNodeRead && kind <= SpanKind::kLockReleaseAll;
}

Tracer::Tracer(size_t keep_per_thread) : keep_per_thread_(keep_per_thread) {}

Tracer::ThreadBuffer* Tracer::Local() {
  // The process has a single tracer, so a thread registers its buffer
  // with it on first use and caches the pointer.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<ThreadBuffer>();
    buffer = fresh.get();
    std::lock_guard<std::mutex> guard(mu_);
    buffers_.push_back(std::move(fresh));
  }
  return buffer;
}

void Tracer::Begin(SpanKind kind, uint64_t tx) {
  ThreadBuffer* b = Local();
  const int32_t parent = b->stack.empty() ? -1 : b->stack.back().kept;
  int32_t kept = -1;
  const int64_t now = NowNs();
  // A span is kept only when its parent was, so kept parent links never
  // dangle.
  if (b->kept.size() < keep_per_thread_ && (b->stack.empty() || parent >= 0)) {
    kept = static_cast<int32_t>(b->kept.size());
    b->kept.push_back({tx, parent, kind, now, 0});
  }
  b->stack.push_back({kind, now, 0, kept});
}

void Tracer::End() {
  const int64_t now = NowNs();
  ThreadBuffer* b = Local();
  const Open open = b->stack.back();
  b->stack.pop_back();
  const int64_t duration = now - open.start_ns;
  if (!b->stack.empty()) b->stack.back().child_ns += duration;
  SpanStats& s = b->stats[static_cast<size_t>(open.kind)];
  ++s.count;
  s.total_ns += duration;
  s.self_ns += duration - open.child_ns;
  // Lock calls are hundreds per commit and only their sums are reported.
  if (!IsLockSpan(open.kind)) s.samples_ns.push_back(duration);
  if (open.kept >= 0) b->kept[static_cast<size_t>(open.kept)].end_ns = now;
}

std::array<SpanStats, kNumSpanKinds> Tracer::Totals() const {
  std::array<SpanStats, kNumSpanKinds> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& b : buffers_) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      const SpanStats& s = b->stats[k];
      out[k].count += s.count;
      out[k].total_ns += s.total_ns;
      out[k].self_ns += s.self_ns;
      out[k].samples_ns.insert(out[k].samples_ns.end(), s.samples_ns.begin(),
                               s.samples_ns.end());
    }
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tspan\tparent\ttx\tkind\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& kept = buffers_[t]->kept;
    for (size_t i = 0; i < kept.size(); ++i) {
      const Kept& k = kept[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%.*s\t%lld\t%lld\n", t, i, k.parent,
                   static_cast<unsigned long long>(k.tx),
                   static_cast<int>(SpanName(k.kind).size()),
                   SpanName(k.kind).data(), static_cast<long long>(k.start_ns),
                   static_cast<long long>(k.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// --- TracedDom -------------------------------------------------------------

xtc::StatusOr<std::optional<xtc::Splid>> TracedDom::GetElementById(
    std::string_view id) {
  ScopedSpan span(tracer_, SpanKind::kDomGetElementById, tx_);
  return inner_->GetElementById(id);
}

xtc::StatusOr<std::vector<std::pair<std::string, std::string>>>
TracedDom::GetAttributes(const xtc::Splid& element) {
  ScopedSpan span(tracer_, SpanKind::kDomGetAttributes, tx_);
  return inner_->GetAttributes(element);
}

xtc::StatusOr<std::optional<xtc::DomNode>> TracedDom::GetFirstChild(
    const xtc::Splid& parent) {
  ScopedSpan span(tracer_, SpanKind::kDomGetFirstChild, tx_);
  return inner_->GetFirstChild(parent);
}

xtc::StatusOr<std::optional<xtc::DomNode>> TracedDom::GetLastChild(
    const xtc::Splid& parent) {
  ScopedSpan span(tracer_, SpanKind::kDomGetLastChild, tx_);
  return inner_->GetLastChild(parent);
}

xtc::StatusOr<std::optional<xtc::DomNode>> TracedDom::GetNextSibling(
    const xtc::Splid& node) {
  ScopedSpan span(tracer_, SpanKind::kDomGetNextSibling, tx_);
  return inner_->GetNextSibling(node);
}

xtc::StatusOr<std::vector<xtc::DomNode>> TracedDom::GetChildNodes(
    const xtc::Splid& parent) {
  ScopedSpan span(tracer_, SpanKind::kDomGetChildNodes, tx_);
  return inner_->GetChildNodes(parent);
}

xtc::StatusOr<std::string> TracedDom::GetTextContent(const xtc::Splid& text) {
  ScopedSpan span(tracer_, SpanKind::kDomGetTextContent, tx_);
  return inner_->GetTextContent(text);
}

xtc::Status TracedDom::DeclareUpdateIntent(const xtc::Splid& node) {
  ScopedSpan span(tracer_, SpanKind::kDomDeclareUpdateIntent, tx_);
  return inner_->DeclareUpdateIntent(node);
}

xtc::Status TracedDom::UpdateText(const xtc::Splid& text,
                                  std::string_view content) {
  ScopedSpan span(tracer_, SpanKind::kDomUpdateText, tx_);
  return inner_->UpdateText(text, content);
}

xtc::Status TracedDom::SetAttribute(const xtc::Splid& element,
                                    std::string_view name,
                                    std::string_view value) {
  ScopedSpan span(tracer_, SpanKind::kDomSetAttribute, tx_);
  return inner_->SetAttribute(element, name, value);
}

xtc::StatusOr<xtc::Splid> TracedDom::AppendSubtree(
    const xtc::Splid& parent, const xtc::SubtreeSpec& spec) {
  ScopedSpan span(tracer_, SpanKind::kDomAppendSubtree, tx_);
  return inner_->AppendSubtree(parent, spec);
}

xtc::Status TracedDom::DeleteSubtree(const xtc::Splid& root) {
  ScopedSpan span(tracer_, SpanKind::kDomDeleteSubtree, tx_);
  return inner_->DeleteSubtree(root);
}

xtc::Status TracedDom::Rename(const xtc::Splid& element,
                              std::string_view new_name) {
  ScopedSpan span(tracer_, SpanKind::kDomRename, tx_);
  return inner_->Rename(element, new_name);
}

// --- TracedProtocol --------------------------------------------------------

xtc::Status TracedProtocol::NodeRead(uint64_t tx, const xtc::Splid& node,
                                     xtc::AccessKind access,
                                     xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockNodeRead, tx);
  return inner_->NodeRead(tx, node, access, dur);
}

xtc::Status TracedProtocol::NodeUpdate(uint64_t tx, const xtc::Splid& node,
                                       xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockNodeUpdate, tx);
  return inner_->NodeUpdate(tx, node, dur);
}

xtc::Status TracedProtocol::NodeWrite(uint64_t tx, const xtc::Splid& node,
                                      xtc::AccessKind access,
                                      xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockNodeWrite, tx);
  return inner_->NodeWrite(tx, node, access, dur);
}

xtc::Status TracedProtocol::LevelRead(uint64_t tx, const xtc::Splid& node,
                                      xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockLevelRead, tx);
  return inner_->LevelRead(tx, node, dur);
}

xtc::Status TracedProtocol::TreeRead(uint64_t tx, const xtc::Splid& root,
                                     xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockTreeRead, tx);
  return inner_->TreeRead(tx, root, dur);
}

xtc::Status TracedProtocol::TreeUpdate(uint64_t tx, const xtc::Splid& root,
                                       xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockTreeUpdate, tx);
  return inner_->TreeUpdate(tx, root, dur);
}

xtc::Status TracedProtocol::TreeWrite(uint64_t tx, const xtc::Splid& root,
                                      xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockTreeWrite, tx);
  return inner_->TreeWrite(tx, root, dur);
}

xtc::Status TracedProtocol::EdgeLock(uint64_t tx, const xtc::Splid& anchor,
                                     xtc::EdgeKind kind, bool exclusive,
                                     xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockEdge, tx);
  return inner_->EdgeLock(tx, anchor, kind, exclusive, dur);
}

xtc::Status TracedProtocol::PrepareSubtreeDelete(uint64_t tx,
                                                 const xtc::Splid& root,
                                                 xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockPrepareSubtreeDelete, tx);
  return inner_->PrepareSubtreeDelete(tx, root, dur);
}

xtc::Status TracedProtocol::IdValueLock(uint64_t tx, std::string_view id,
                                        bool exclusive,
                                        xtc::LockDuration dur) {
  ScopedSpan span(tracer_, SpanKind::kLockIdValue, tx);
  return inner_->IdValueLock(tx, id, exclusive, dur);
}

void TracedProtocol::EndOperation(uint64_t tx) {
  ScopedSpan span(tracer_, SpanKind::kLockEndOperation, tx);
  inner_->EndOperation(tx);
}

void TracedProtocol::ReleaseAll(uint64_t tx) {
  ScopedSpan span(tracer_, SpanKind::kLockReleaseAll, tx);
  inner_->ReleaseAll(tx);
}

}  // namespace perfbench
