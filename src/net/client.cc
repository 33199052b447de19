#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace xtc {
namespace net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Reads the status preamble; on a non-OK server status returns it.
/// Decode failures (truncated preamble) surface as kDataLoss.
Status TakeStatus(WireReader* r) {
  Status st;
  if (!GetStatus(r, &st)) {
    return Status::DataLoss("broken response status preamble");
  }
  return st;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Remaining whole milliseconds until the deadline, floored at 0 and
/// rounded up so a sub-millisecond remainder still polls once.
int RemainingMs(TimePoint deadline) {
  const Duration left = deadline - Now();
  if (left <= Duration::zero()) return 0;
  const int64_t ms = ToMillis(left);
  return static_cast<int>(ms < 1 ? 1 : ms);
}

}  // namespace

Status Client::Connect(std::string_view host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  host_.assign(host);
  port_ = port;
  token_id_ = 0;
  token_secret_ = 0;
  Status st = ConnectSocket();
  if (!st.ok()) return st;
  st = Handshake();
  if (!st.ok()) Close();
  return st;
}

Status Client::ConnectSocket() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad IPv4 address: " + host_);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    const Status st = ErrnoStatus("connect");
    Close();
    return st;
  }
  // Non-blocking connect: poll for writability, then read the outcome
  // from SO_ERROR — never blocks past connect_timeout.
  const TimePoint deadline = Now() + options_.connect_timeout;
  Status st = PollFd(POLLOUT, deadline, "connect");
  if (!st.ok()) {
    Close();
    return st;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    errno = err != 0 ? err : errno;
    const Status cst = ErrnoStatus("connect");
    Close();
    return cst;
  }
  return Status::OK();
}

Status Client::Handshake() {
  WireWriter w;
  w.Str("xtc-tamix-client");
  const uint32_t hello_id = next_request_id_++;
  auto resp = ExchangeOnce(
      MsgType::kHello, hello_id,
      EncodeFrame(static_cast<uint8_t>(MsgType::kHello), hello_id, w.str()));
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint8_t server_version;
  uint64_t new_token_id, new_token_secret;
  uint32_t lease_ms;
  if (!r.U8(&server_version) || !r.U64(&new_token_id) ||
      !r.U64(&new_token_secret) || !r.U32(&lease_ms)) {
    return Status::DataLoss("broken hello response");
  }
  if (server_version != kWireVersion) {
    return Status::NotSupported("server wire version mismatch");
  }

  if (token_id_ != 0) {
    // Reconnection: present the previous session's token; on success the
    // old session state (and token) carries over and the fresh token the
    // server just issued is discarded on both ends.
    WireWriter rw;
    rw.U64(token_id_);
    rw.U64(token_secret_);
    const uint32_t resume_id = next_request_id_++;
    auto rr = ExchangeOnce(MsgType::kResume, resume_id,
                           EncodeFrame(static_cast<uint8_t>(MsgType::kResume),
                                       resume_id, rw.str()));
    if (rr.ok()) {
      WireReader rrr(*rr);
      uint8_t tx_open;
      if (!rrr.U8(&tx_open)) return Status::DataLoss("broken resume response");
      resumed_tx_open_ = tx_open != 0;
      ++net_stats_.resumes;
      return Status::OK();
    }
    if (rr.status().code() == StatusCode::kNotFound ||
        rr.status().code() == StatusCode::kNotSupported) {
      // The lease expired (or leases are off): the old session is gone
      // for good. Adopt the fresh token and report the loss.
      if (rr.status().code() == StatusCode::kNotFound) {
        ++net_stats_.lease_expired;
      }
      token_id_ = new_token_id;
      token_secret_ = new_token_secret;
      lease_ms_ = lease_ms;
      return rr.status();
    }
    // Transport failure or a busy predecessor: worth another attempt.
    return rr.status();
  }

  token_id_ = new_token_id;
  token_secret_ = new_token_secret;
  lease_ms_ = lease_ms;
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::PollFd(short events, TimePoint deadline, const char* what) {
  for (;;) {
    pollfd pfd{fd_, events, 0};
    const int r = ::poll(&pfd, 1, RemainingMs(deadline));
    if (r > 0) return Status::OK();
    if (r == 0) {
      ++net_stats_.io_timeouts;
      return Status::IoError(std::string(what) + " deadline exceeded");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus(what);
  }
}

Status Client::SendAllDeadline(std::string_view bytes, TimePoint deadline) {
  if (options_.faults != nullptr &&
      options_.faults->ShouldFail(fault_points::kNetSend)) {
    return Status::IoError("injected fault at net.send");
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Status st = PollFd(POLLOUT, deadline, "send");
      if (!st.ok()) return st;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoStatus("send");
  }
  return Status::OK();
}

Status Client::RecvExactlyDeadline(char* buf, size_t n, TimePoint deadline,
                                   bool poll_first) {
  if (options_.faults != nullptr &&
      options_.faults->ShouldFail(fault_points::kNetRecv)) {
    return Status::IoError("injected fault at net.recv");
  }
  size_t off = 0;
  bool wait = poll_first;
  while (off < n) {
    if (wait) {
      Status st = PollFd(POLLIN, deadline, "recv");
      if (!st.ok()) return st;
    }
    const ssize_t got = ::recv(fd_, buf + off, n - off, 0);
    wait = true;  // a short read took everything there was
    if (got > 0) {
      off += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      return Status::IoError("server closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    return ErrnoStatus("recv");
  }
  return Status::OK();
}

StatusOr<std::string> Client::ExchangeOnce(MsgType type, uint32_t request_id,
                                           std::string_view frame) {
  const TimePoint deadline = Now() + options_.io_timeout;
  Status st = SendAllDeadline(frame, deadline);
  if (!st.ok()) {
    Close();
    return st;
  }

  char header_bytes[kHeaderSize];
  st = RecvExactlyDeadline(header_bytes, kHeaderSize, deadline,
                           /*poll_first=*/true);
  if (!st.ok()) {
    Close();
    return st;
  }
  FrameHeader header;
  st = DecodeHeader(std::string_view(header_bytes, kHeaderSize), &header);
  if (!st.ok()) {
    Close();
    return st;
  }
  std::string body(header.payload_len, '\0');
  if (header.payload_len > 0) {
    // The server writes header and payload in one send: the payload is
    // normally here already.
    st = RecvExactlyDeadline(body.data(), body.size(), deadline,
                             /*poll_first=*/false);
    if (!st.ok()) {
      Close();
      return st;
    }
  }
  st = CheckPayload(header, body);
  if (!st.ok()) {
    Close();
    return st;
  }
  if (header.type != (static_cast<uint8_t>(type) | kResponseBit) ||
      header.request_id != request_id) {
    Close();
    return Status::DataLoss("response does not match request");
  }

  WireReader r(body);
  st = TakeStatus(&r);
  if (!st.ok()) return st;
  // Hand back only the result fields; the caller's reader starts there.
  return body.substr(r.pos());
}

Status Client::Reconnect(int* attempt, uint32_t request_id) {
  while (*attempt < options_.max_reconnect_attempts) {
    ++*attempt;
    Close();
    // Capped exponential backoff with deterministic jitter in [0.5, 1.0)
    // — a worker fleet fans out instead of thundering back as one.
    int64_t base_ms = ToMillis(options_.backoff);
    for (int i = 1; i < *attempt && base_ms < ToMillis(options_.backoff_max);
         ++i) {
      base_ms *= 2;
    }
    const int64_t cap_ms = ToMillis(options_.backoff_max);
    if (base_ms > cap_ms) base_ms = cap_ms;
    const uint64_t h = SplitMix64(options_.seed ^ (uint64_t{request_id} << 20) ^
                                  static_cast<uint64_t>(*attempt));
    const double jitter = 0.5 + 0.5 * ((h >> 11) * (1.0 / 9007199254740992.0));
    SleepFor(Millis(static_cast<int64_t>(static_cast<double>(base_ms) *
                                         jitter)));

    if (!ConnectSocket().ok()) continue;
    Status st = Handshake();
    if (st.ok()) {
      ++net_stats_.reconnects;
      return Status::OK();
    }
    if (st.code() == StatusCode::kNotFound ||
        st.code() == StatusCode::kNotSupported) {
      // Lease expired / resume unavailable: definitive — the connection
      // itself is healthy, only the old session state is gone.
      ++net_stats_.reconnects;
      return st;
    }
    // Busy predecessor or transport failure mid-handshake: retry.
    Close();
  }
  return Status::IoError("reconnect attempts exhausted");
}

StatusOr<std::string> Client::RoundTrip(MsgType type,
                                        std::string_view payload) {
  if (options_.faults != nullptr) {
    if (options_.faults->ShouldFail(fault_points::kNetDelay)) {
      SleepFor(Millis(2));
    }
    // An injected close: the connection drops out from under the call —
    // exercised below exactly like a peer reset.
    if (options_.faults->ShouldFail(fault_points::kNetClose)) Close();
  }
  if (fd_ < 0 && options_.max_reconnect_attempts <= 0) {
    return Status::IoError("client not connected");
  }
  const uint32_t request_id = next_request_id_++;
  const std::string frame =
      EncodeFrame(static_cast<uint8_t>(type), request_id, payload);
  const bool is_commit = type == MsgType::kCommit;

  int attempt = 0;
  bool sent = false;  // the request may have reached the server
  for (;;) {
    if (fd_ < 0) {
      if (token_id_ == 0) return Status::IoError("client not connected");
      Status rst = Reconnect(&attempt, request_id);
      if (!rst.ok()) {
        if (!sent) return rst;  // never sent: provably not executed
        if (is_commit) {
          // The commit may have executed but the recorded outcome is
          // unreachable (lease expired or the server is gone): the one
          // genuinely indeterminate case.
          ++net_stats_.unknown_commits;
          return Status::Unknown("commit outcome unknown: " + rst.message());
        }
        // Non-commit state died with the session; the caller's retry
        // loop restarts the transaction.
        return Status::TxAborted("session lost: " + rst.message());
      }
      if (sent) {
        // Same request_id on the wire again: the server either executes
        // it for the first time or answers from its outcome table.
        ++net_stats_.retried_requests;
      }
    }
    sent = true;
    auto resp = ExchangeOnce(type, request_id, frame);
    if (fd_ >= 0) return resp;  // definitive answer from the server
    if (attempt >= options_.max_reconnect_attempts) {
      // With resilience off (attempts == 0) keep the raw transport error
      // — legacy callers own their reconnect logic and classification.
      if (is_commit && options_.max_reconnect_attempts > 0) {
        ++net_stats_.unknown_commits;
        return Status::Unknown("commit outcome unknown: " +
                               resp.status().message());
      }
      return resp.status();
    }
  }
}

StatusOr<uint64_t> Client::Begin(IsolationLevel isolation, int lock_depth,
                                 TxType tx_type) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(isolation));
  w.U8(static_cast<uint8_t>(lock_depth));
  w.U8(static_cast<uint8_t>(tx_type));
  auto resp = RoundTrip(MsgType::kBegin, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint64_t tx_id;
  if (!r.U64(&tx_id)) return Status::DataLoss("broken begin response");
  return tx_id;
}

StatusOr<uint64_t> Client::Commit(std::string_view wal_payload) {
  WireWriter w;
  w.Str(wal_payload);
  auto resp = RoundTrip(MsgType::kCommit, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint64_t commit_seq;
  if (!r.U64(&commit_seq)) return Status::DataLoss("broken commit response");
  return commit_seq;
}

Status Client::Abort() {
  return RoundTrip(MsgType::kAbort, {}).status();
}

StatusOr<StatsSnapshot> Client::Stats() {
  auto resp = RoundTrip(MsgType::kStats, {});
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  StatsSnapshot stats;
  if (!GetSnapshot(&r, &stats)) {
    return Status::DataLoss("broken stats response");
  }
  return stats;
}

StatusOr<BibInfo> Client::WorkloadInfo() {
  auto resp = RoundTrip(MsgType::kWorkloadInfo, {});
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  BibInfo info;
  if (!r.U64(&info.num_nodes)) {
    return Status::DataLoss("broken workload info response");
  }
  const auto get_list = [&r](std::vector<std::string>* out) {
    uint32_t n;
    if (!r.U32(&n) || n > kMaxPayload / 4) return false;
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      std::string s;
      if (!r.Str(&s)) return false;
      out->push_back(std::move(s));
    }
    return true;
  };
  if (!get_list(&info.book_ids) || !get_list(&info.topic_ids) ||
      !get_list(&info.person_ids)) {
    return Status::DataLoss("broken workload info response");
  }
  return info;
}

// --- RemoteDom ------------------------------------------------------------

namespace {

std::optional<DomNode> ToDomNode(const WireNode& n, bool* ok) {
  std::optional<Splid> splid = Splid::Decode(n.splid);
  if (!splid.has_value()) {
    *ok = false;
    return std::nullopt;
  }
  DomNode node;
  node.splid = *splid;
  node.kind = static_cast<NodeKind>(n.kind);
  node.name = n.name;
  return node;
}

}  // namespace

Status RemoteDom::SimpleOp(MsgType type, const WireWriter& w) {
  return client_->RoundTrip(type, w.str()).status();
}

StatusOr<std::optional<DomNode>> RemoteDom::NodeOp(MsgType type,
                                                   const Splid& subject) {
  WireWriter w;
  w.SplidVal(subject);
  auto resp = client_->RoundTrip(type, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint8_t present;
  if (!r.U8(&present)) return Status::DataLoss("broken node response");
  if (present == 0) return std::optional<DomNode>();
  WireNode wn;
  bool ok = true;
  if (!GetNode(&r, &wn)) return Status::DataLoss("broken node response");
  std::optional<DomNode> node = ToDomNode(wn, &ok);
  if (!ok) return Status::DataLoss("broken node label");
  return node;
}

StatusOr<std::optional<Splid>> RemoteDom::GetElementById(std::string_view id) {
  WireWriter w;
  w.Str(id);
  auto resp = client_->RoundTrip(MsgType::kGetElementById, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint8_t present;
  if (!r.U8(&present)) return Status::DataLoss("broken element-by-id response");
  if (present == 0) return std::optional<Splid>();
  Splid splid;
  if (!r.SplidVal(&splid)) {
    return Status::DataLoss("broken element-by-id response");
  }
  return std::optional<Splid>(splid);
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
RemoteDom::GetAttributes(const Splid& element) {
  WireWriter w;
  w.SplidVal(element);
  auto resp = client_->RoundTrip(MsgType::kGetAttributes, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint32_t n;
  if (!r.U32(&n) || n > kMaxPayload / 8) {
    return Status::DataLoss("broken attributes response");
  }
  std::vector<std::pair<std::string, std::string>> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string key, value;
    if (!r.Str(&key) || !r.Str(&value)) {
      return Status::DataLoss("broken attributes response");
    }
    attrs.emplace_back(std::move(key), std::move(value));
  }
  return attrs;
}

StatusOr<std::optional<DomNode>> RemoteDom::GetFirstChild(
    const Splid& parent) {
  return NodeOp(MsgType::kGetFirstChild, parent);
}

StatusOr<std::optional<DomNode>> RemoteDom::GetLastChild(const Splid& parent) {
  return NodeOp(MsgType::kGetLastChild, parent);
}

StatusOr<std::optional<DomNode>> RemoteDom::GetNextSibling(const Splid& node) {
  return NodeOp(MsgType::kGetNextSibling, node);
}

StatusOr<std::vector<DomNode>> RemoteDom::GetChildNodes(const Splid& parent) {
  WireWriter w;
  w.SplidVal(parent);
  auto resp = client_->RoundTrip(MsgType::kGetChildNodes, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  uint32_t n;
  if (!r.U32(&n) || n > kMaxPayload / 8) {
    return Status::DataLoss("broken child-nodes response");
  }
  std::vector<DomNode> children;
  children.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WireNode wn;
    bool ok = true;
    if (!GetNode(&r, &wn)) return Status::DataLoss("broken child-nodes row");
    std::optional<DomNode> node = ToDomNode(wn, &ok);
    if (!ok || !node.has_value()) {
      return Status::DataLoss("broken child-nodes label");
    }
    children.push_back(std::move(*node));
  }
  return children;
}

StatusOr<std::string> RemoteDom::GetTextContent(const Splid& text) {
  WireWriter w;
  w.SplidVal(text);
  auto resp = client_->RoundTrip(MsgType::kGetTextContent, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  std::string content;
  if (!r.Str(&content)) return Status::DataLoss("broken text response");
  return content;
}

Status RemoteDom::DeclareUpdateIntent(const Splid& node) {
  WireWriter w;
  w.SplidVal(node);
  return SimpleOp(MsgType::kDeclareUpdateIntent, w);
}

Status RemoteDom::UpdateText(const Splid& text, std::string_view content) {
  WireWriter w;
  w.SplidVal(text);
  w.Str(content);
  return SimpleOp(MsgType::kUpdateText, w);
}

Status RemoteDom::SetAttribute(const Splid& element, std::string_view name,
                               std::string_view value) {
  WireWriter w;
  w.SplidVal(element);
  w.Str(name);
  w.Str(value);
  return SimpleOp(MsgType::kSetAttribute, w);
}

StatusOr<Splid> RemoteDom::AppendSubtree(const Splid& parent,
                                         const SubtreeSpec& spec) {
  WireWriter w;
  w.SplidVal(parent);
  w.Spec(spec);
  auto resp = client_->RoundTrip(MsgType::kAppendSubtree, w.str());
  if (!resp.ok()) return resp.status();
  WireReader r(*resp);
  Splid root;
  if (!r.SplidVal(&root)) {
    return Status::DataLoss("broken append-subtree response");
  }
  return root;
}

Status RemoteDom::DeleteSubtree(const Splid& root) {
  WireWriter w;
  w.SplidVal(root);
  return SimpleOp(MsgType::kDeleteSubtree, w);
}

Status RemoteDom::Rename(const Splid& element, std::string_view new_name) {
  WireWriter w;
  w.SplidVal(element);
  w.Str(new_name);
  return SimpleOp(MsgType::kRename, w);
}

}  // namespace net
}  // namespace xtc
