#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "tamix/dom_api.h"

namespace xtc {
namespace net {

namespace {

/// How long the event loop sleeps in epoll_wait when nothing happens —
/// the cadence of idle reaping, lease expiry and deferred-fd closing.
constexpr int kLoopTickMs = 250;
/// epoll keys that are not session ids (those start at 1).
constexpr uint64_t kStopKey = 0;
constexpr uint64_t kListenKey = ~uint64_t{0};
/// How long a worker waits for a stalled client to accept response bytes
/// before declaring the session dead.
constexpr int kSendTimeoutMs = 5000;
/// Drain's poll cadence while waiting for in-flight work to finish.
constexpr auto kDrainPollInterval = std::chrono::milliseconds(10);

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Response payload carrying only a status (the common error shape).
std::string StatusOnlyPayload(const Status& st) {
  WireWriter w;
  PutStatus(&w, st);
  return std::move(w.str());
}

/// SplitMix64 over a nonce + per-server salt. Not cryptographic — the
/// secret guards against accidental cross-session resumes, not attackers
/// on the loopback.
uint64_t TokenSecret(uint64_t nonce, uintptr_t salt) {
  uint64_t x = nonce ^ (static_cast<uint64_t>(salt) * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// How long HandleResume waits for a half-open predecessor's worker to
/// finish and park the core before telling the client to retry.
constexpr auto kResumeStealTimeout = std::chrono::seconds(3);
constexpr auto kResumeStealPoll = std::chrono::milliseconds(2);

}  // namespace

Server::Server(Deps deps, ServerOptions options)
    : deps_(deps), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return ErrnoStatus("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) return ErrnoStatus("eventfd");
  loop_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop_epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  work_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (work_epoll_fd_ < 0) return ErrnoStatus("epoll_create1");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  if (::epoll_ctl(loop_epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(listen)");
  }
  ev.data.u64 = kStopKey;
  if (::epoll_ctl(loop_epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) < 0 ||
      ::epoll_ctl(work_epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(eventfd)");
  }

  metrics_.MarkRunStart();
  loop_thread_ = std::thread(&Server::EventLoop, this);
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::OK();
}

// --- Event loop -----------------------------------------------------------

void Server::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool listener_armed = true;

  while (!stopping_.load(std::memory_order_acquire)) {
    if (listener_armed && !accepting_.load(std::memory_order_acquire)) {
      ::epoll_ctl(loop_epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listener_armed = false;
    }

    const int n = ::epoll_wait(loop_epoll_fd_, events, kMaxEvents, kLoopTickMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll set is gone; shutdown is in progress
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        AcceptPending();
        continue;
      }
      // A bare EPOLLRDHUP is an orderly EOF: the worker reads it after the
      // frames before it and closes then. Only a reset or a full hangup
      // closes from here, which also wakes a worker parked in a lock wait.
      if (key == kStopKey ||
          (events[i].events & (EPOLLHUP | EPOLLERR)) == 0) {
        continue;
      }
      if (SessionPtr s = FindSession(key)) BeginClose(s);
    }
    CloseDeadFds();
    ReapIdle();
    ExpireLeases();
  }

  CloseDeadFds();
}

void Server::AcceptPending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    size_t live;
    {
      MutexLock guard(sessions_mu_);
      live = sessions_.size();
    }
    if (live >= options_.max_sessions) {
      stat_sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto s = std::make_shared<Session>();
    s->fd = fd;
    s->last_activity.store(Now(), std::memory_order_relaxed);
    {
      MutexLock guard(sessions_mu_);
      s->id = next_session_id_++;
      sessions_.emplace(s->id, s);
    }
    epoll_event hangup{};
    hangup.events = EPOLLRDHUP | EPOLLET;
    hangup.data.u64 = s->id;
    epoll_event readable{};
    readable.events = EPOLLIN | EPOLLONESHOT;
    readable.data.u64 = s->id;
    if (::epoll_ctl(loop_epoll_fd_, EPOLL_CTL_ADD, fd, &hangup) < 0 ||
        ::epoll_ctl(work_epoll_fd_, EPOLL_CTL_ADD, fd, &readable) < 0) {
      BeginClose(s);
      continue;
    }
    stat_sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
}

Server::SessionPtr Server::FindSession(uint64_t id) const {
  MutexLock guard(sessions_mu_);
  auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second : nullptr;
}

bool Server::Closing(Session* s) const {
  MutexLock guard(s->mu);
  return s->closing;
}

bool Server::ReadSession(const SessionPtr& s, std::vector<Frame>* frames) {
  // An injected receive failure is indistinguishable from the peer
  // resetting the connection: the session tears down (or parks).
  if (deps_.faults != nullptr &&
      deps_.faults->ShouldFail(fault_points::kNetRecv)) {
    return false;
  }
  char buf[16 * 1024];
  bool open = true;
  for (;;) {
    const ssize_t n = ::read(s->fd, buf, sizeof(buf));
    if (n > 0) {
      s->rbuf.append(buf, static_cast<size_t>(n));
      // A client streaming unbounded bytes that never frame (e.g. a
      // well-formed header whose payload trickles in past any sane size
      // is impossible — payload_len is capped — so this only fires on
      // garbage that happened to pass no header check yet).
      if (s->rbuf.size() > kHeaderSize + kMaxPayload) {
        stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      // A short read drained the socket for now; whatever arrives later
      // is reported by the re-armed fd, so skip the read that would only
      // say EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    // Orderly EOF often arrives in the same wakeup as the final frame's
    // bytes. Fall through and extract those frames before honoring it:
    // a request the peer fully delivered must be executed (and its
    // outcome recorded) even though the response has nowhere to go —
    // it is what a resumed client will retry for.
    if (n == 0) {
      open = false;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  s->last_activity.store(Now(), std::memory_order_relaxed);

  // Extract every complete frame.
  size_t consumed = 0;
  while (s->rbuf.size() - consumed >= kHeaderSize) {
    const std::string_view rest = std::string_view(s->rbuf).substr(consumed);
    FrameHeader header;
    Status st = DecodeHeader(rest, &header);
    if (!st.ok()) {
      // Header-level corruption: the type and request_id bytes cannot be
      // trusted and a length-prefixed stream cannot resynchronize, so
      // there is nothing meaningful to answer — drop the connection.
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      open = false;
      break;
    }
    if (rest.size() < kHeaderSize + header.payload_len) break;  // partial
    const std::string_view payload = rest.substr(kHeaderSize, header.payload_len);
    consumed += kHeaderSize + header.payload_len;
    stat_frames_received_.fetch_add(1, std::memory_order_relaxed);

    // The header framed correctly, so type/request_id are reliable and
    // payload-level problems get a proper error response (then the
    // session closes: the payload bytes still desynchronize nothing, but
    // trust in the peer is gone).
    Frame frame;
    frame.type = header.type & static_cast<uint8_t>(~kResponseBit);
    frame.request_id = header.request_id;
    frame.extracted = Now();
    if ((header.type & kResponseBit) != 0) {
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      frame.reject = Status::InvalidArgument("response frame sent to server");
    } else if (Status pst = CheckPayload(header, payload); !pst.ok()) {
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      frame.reject = std::move(pst);
    } else if (frames->size() >= options_.max_session_pending) {
      // Pipelining far past the response stream violates the protocol.
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      frame.reject = Status::ResourceExhausted("session pipeline cap");
    } else if (queued_frames_.load(std::memory_order_acquire) >=
               options_.max_queue_depth) {
      frame.overloaded = true;
    } else {
      frame.payload.assign(payload);
    }
    const bool fatal = !frame.reject.ok();
    frames->push_back(std::move(frame));
    queued_frames_.fetch_add(1, std::memory_order_acq_rel);
    if (fatal) break;  // teardown happens after the error response
  }
  s->rbuf.erase(0, consumed);
  return open;
}

void Server::BeginClose(const SessionPtr& s) {
  bool teardown_now = false;
  {
    MutexLock guard(s->mu);
    if (s->closing) return;
    s->closing = true;
    teardown_now = !s->busy;
  }
  // A transaction parked in LockTable::Lock() must be woken or teardown
  // (and drain) would stall the full lock wait timeout behind it. But
  // CancelTx is sticky until ReleaseAll — a cancelled transaction can
  // never run another operation — so under an active lease the wait is
  // left alone: the in-flight operation finishes on its own (bounded by
  // the lock wait timeout) and the worker then parks the session for
  // resume. Drain and Stop still cancel.
  if (!LeasesActive()) {
    const uint64_t tx = s->tx_id.load(std::memory_order_acquire);
    if (tx != 0) deps_.table->CancelTx(tx);
  }
  if (teardown_now) Teardown(s);
}

void Server::Teardown(const SessionPtr& s) {
  ParkOrAbort(s.get());
  {
    MutexLock guard(sessions_mu_);
    sessions_.erase(s->id);
  }
  // Only the event loop closes fds, on its next tick: a descriptor number
  // closed here could be reused by the next accept while a thread that
  // still holds this session is about to touch the old number. Shut the
  // socket down now so the peer sees EOF at once.
  ::shutdown(s->fd, SHUT_RDWR);
  {
    MutexLock guard(dead_fds_mu_);
    dead_fds_.push_back(s->fd);
  }
  stat_sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

void Server::CloseDeadFds() {
  std::vector<int> fds;
  {
    MutexLock guard(dead_fds_mu_);
    fds.swap(dead_fds_);
  }
  for (int fd : fds) ::close(fd);
}

void Server::ReapIdle() {
  const TimePoint now = Now();
  std::vector<SessionPtr> idle;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      if (now - s->last_activity.load(std::memory_order_relaxed) >
          options_.idle_timeout) {
        idle.push_back(s);
      }
    }
  }
  for (const SessionPtr& s : idle) {
    stat_idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    BeginClose(s);
  }
}

// --- Workers --------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    // One event at a time: a worker that took several ready sessions
    // would serve them in turn while idle workers slept.
    epoll_event ev;
    const int n = ::epoll_wait(work_epoll_fd_, &ev, 1, -1);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (n < 0 && errno != EINTR) return;
    if (n <= 0 || ev.data.u64 == kStopKey) continue;
    SessionPtr s = FindSession(ev.data.u64);
    if (s == nullptr) continue;  // torn down after the event was queued
    {
      MutexLock guard(s->mu);
      if (s->closing) continue;  // BeginClose tore it down (it was idle)
      s->busy = true;
    }
    ServeSession(s);
  }
}

void Server::ServeSession(const SessionPtr& s) {
  std::vector<Frame> frames;
  const bool stream_open = ReadSession(s, &frames);
  bool healthy = true;
  size_t next = 0;
  // A BeginClose (reset, idle reap, drain, resume) drops the frames not
  // yet executed.
  while (healthy && next < frames.size() && !Closing(s.get())) {
    queued_frames_.fetch_sub(1, std::memory_order_acq_rel);
    healthy = Process(s, frames[next++]);
  }
  queued_frames_.fetch_sub(frames.size() - next, std::memory_order_acq_rel);

  bool teardown;
  {
    // Re-arm under the mutex: no one can tear the session down (and
    // retire its fd number) between the MOD and the busy flag dropping.
    // Bytes that arrived meanwhile make the fd fire at once.
    MutexLock guard(s->mu);
    epoll_event readable{};
    readable.events = EPOLLIN | EPOLLONESHOT;
    readable.data.u64 = s->id;
    teardown = !stream_open || !healthy || s->closing ||
               ::epoll_ctl(work_epoll_fd_, EPOLL_CTL_MOD, s->fd, &readable) < 0;
    if (teardown) {
      s->closing = true;
    } else {
      s->busy = false;
    }
  }
  if (teardown) Teardown(s);
}

bool Server::Process(const SessionPtr& s, Frame& frame) {
  if (deps_.faults != nullptr) {
    if (deps_.faults->ShouldFail(fault_points::kNetDelay)) SleepFor(Millis(2));
    // An injected close looks like the kernel dropping the connection
    // before the request ran: no response, session tears down (or parks).
    if (deps_.faults->ShouldFail(fault_points::kNetClose)) return false;
  }
  std::string payload;
  bool close_after = false;
  bool executed = false;
  const bool dedupable =
      options_.outcome_table_entries > 0 && IsTxScoped(frame.type);
  if (!frame.reject.ok()) {
    payload = StatusOnlyPayload(frame.reject);
    close_after = true;
  } else if (frame.overloaded) {
    stat_admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    payload = StatusOnlyPayload(
        Status::ResourceExhausted("server request queue full"));
  } else if (dedupable && DedupLookup(*s->core, frame.request_id, frame.type,
                                      &payload)) {
    // The client retried a request whose response it never saw; answer
    // with the recorded outcome, never re-execute (exactly-once).
    stat_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (Now() - frame.extracted > options_.request_deadline &&
             frame.type != static_cast<uint8_t>(MsgType::kAbort)) {
    // Stale work is not worth doing — the client gave up long ago. Abort
    // is exempt: it is how transactions stop holding locks.
    stat_deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
    payload =
        StatusOnlyPayload(Status::ResourceExhausted("request deadline passed"));
  } else {
    payload = HandleRequest(s, frame, &close_after);
    executed = true;
  }
  // Record BEFORE the response bytes go out: if the connection dies
  // anywhere inside SendAll, the retried request_id still finds the
  // outcome. The reverse order would lose a commit that was forced to
  // the WAL but whose response was torn.
  if (executed && dedupable && !close_after) {
    DedupRecord(s->core.get(), frame.request_id, frame.type, payload);
  }
  const std::string response = EncodeFrame(
      static_cast<uint8_t>(frame.type | kResponseBit), frame.request_id,
      payload);
  if (!SendAll(s, response)) return false;
  stat_responses_sent_.fetch_add(1, std::memory_order_relaxed);
  return !close_after;
}

bool Server::DedupLookup(const SessionCore& core, uint32_t request_id,
                         uint8_t type, std::string* payload) const {
  for (const OutcomeEntry& e : core.outcomes) {
    if (e.request_id == request_id && e.type == type) {
      *payload = e.payload;
      return true;
    }
  }
  return false;
}

void Server::DedupRecord(SessionCore* core, uint32_t request_id, uint8_t type,
                         const std::string& payload) {
  if (payload.size() > options_.outcome_record_max_bytes) return;
  core->outcomes.push_back(OutcomeEntry{request_id, type, payload});
  while (core->outcomes.size() > options_.outcome_table_entries) {
    core->outcomes.pop_front();
  }
}

bool Server::SendAll(const SessionPtr& s, std::string_view bytes) {
  if (deps_.faults != nullptr &&
      deps_.faults->ShouldFail(fault_points::kNetSend)) {
    return false;
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(s->fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{s->fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, kSendTimeoutMs);
      if (r <= 0) return false;  // stalled client: drop the session
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// --- Request handlers -----------------------------------------------------

std::string Server::HandleRequest(const SessionPtr& s, const Frame& frame,
                                  bool* close_after) {
  WireReader r(frame.payload);
  std::string payload;
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kHello: {
      std::string client_name;
      if (!r.Str(&client_name) || !r.AtEnd()) break;
      SessionCore* core = s->core.get();
      if (core->token_id == 0) {
        // Issue the resume token: id is the session id (unique for the
        // server's lifetime), secret is an unguessable-enough nonce hash
        // so a stray client cannot adopt someone else's transaction by
        // accident.
        core->token_id = s->id;
        MutexLock guard(parked_mu_);
        core->token_secret =
            TokenSecret(next_token_nonce_++, reinterpret_cast<uintptr_t>(this));
        live_tokens_[core->token_id] = s;
      }
      WireWriter w;
      PutStatus(&w, Status::OK());
      w.U8(kWireVersion);
      w.U64(core->token_id);
      w.U64(core->token_secret);
      w.U32(static_cast<uint32_t>(ToMillis(options_.session_lease)));
      payload = std::move(w.str());
      return payload;
    }
    case MsgType::kResume:
      payload = HandleResume(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kBegin:
      payload = HandleBegin(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kCommit:
      payload = HandleCommit(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kAbort:
      if (!r.AtEnd()) break;
      return HandleAbort(s);
    case MsgType::kStats:
      if (!r.AtEnd()) break;
      return HandleStats();
    case MsgType::kWorkloadInfo:
      if (!r.AtEnd()) break;
      return HandleWorkloadInfo();
    default:
      payload = HandleDomOp(s, frame, r);
      if (!payload.empty()) return payload;
      break;
  }
  // Malformed request payload: the client and server disagree about the
  // protocol — answer once, then disconnect.
  stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  *close_after = true;
  return StatusOnlyPayload(
      Status::InvalidArgument("malformed request payload"));
}

std::string Server::HandleBegin(const SessionPtr& s, WireReader& r) {
  uint8_t isolation, lock_depth, tx_type;
  if (!r.U8(&isolation) || !r.U8(&lock_depth) || !r.U8(&tx_type) ||
      !r.AtEnd()) {
    return {};
  }
  if (isolation > static_cast<uint8_t>(IsolationLevel::kSerializable) ||
      tx_type >= kNumTxTypes) {
    return {};
  }
  if (s->core->tx != nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("transaction already open on this session"));
  }
  if (draining_.load(std::memory_order_acquire)) {
    stat_admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    return StatusOnlyPayload(Status::ResourceExhausted("server draining"));
  }
  // Admission: optimistic increment, undo on loss. The cap may overshoot
  // by a few under a worker stampede; it bounds load, it is not a ledger.
  if (active_tx_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_in_flight_tx) {
    active_tx_.fetch_sub(1, std::memory_order_acq_rel);
    stat_admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    return StatusOnlyPayload(
        Status::ResourceExhausted("too many in-flight transactions"));
  }
  SessionCore* core = s->core.get();
  core->tx = deps_.txm->Begin(static_cast<IsolationLevel>(isolation),
                              static_cast<int>(lock_depth));
  core->tx_type = static_cast<TxType>(tx_type);
  core->tx_begin = Now();
  core->last_error = Status::OK();
  s->tx_id.store(core->tx->id(), std::memory_order_release);
  stat_tx_begun_.fetch_add(1, std::memory_order_relaxed);

  WireWriter w;
  PutStatus(&w, Status::OK());
  w.U64(core->tx->id());
  return std::move(w.str());
}

std::string Server::HandleCommit(const SessionPtr& s, WireReader& r) {
  std::string wal_payload;
  if (!r.Str(&wal_payload) || !r.AtEnd()) return {};
  SessionCore* core = s->core.get();
  if (core->tx == nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("no open transaction on this session"));
  }
  const Status st = deps_.txm->Commit(*core->tx, wal_payload);
  WireWriter w;
  PutStatus(&w, st);
  if (st.ok()) {
    w.U64(core->tx->commit_seq());
    metrics_.RecordCommit(core->tx_type, ToMicros(Now() - core->tx_begin));
    stat_tx_committed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A failed commit force already ended the transaction kAborted with
    // its locks released (see TransactionManager::Commit).
    metrics_.RecordAbort(core->tx_type, st);
    stat_tx_aborted_.fetch_add(1, std::memory_order_relaxed);
  }
  core->tx.reset();
  s->tx_id.store(0, std::memory_order_release);
  active_tx_.fetch_sub(1, std::memory_order_acq_rel);
  return std::move(w.str());
}

std::string Server::HandleAbort(const SessionPtr& s) {
  if (s->core->tx == nullptr) {
    // Aborting nothing is a no-op, not an error: the client's retry loop
    // aborts defensively.
    return StatusOnlyPayload(Status::OK());
  }
  AbortSessionTx(s.get());
  return StatusOnlyPayload(Status::OK());
}

std::string Server::HandleResume(const SessionPtr& s, WireReader& r) {
  uint64_t token_id, secret;
  if (!r.U64(&token_id) || !r.U64(&secret) || !r.AtEnd()) return {};
  if (options_.session_lease <= Duration::zero()) {
    return StatusOnlyPayload(Status::NotSupported("session leases disabled"));
  }
  if (s->core->tx != nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("transaction already open on this session"));
  }

  bool mismatch = false;
  std::unique_ptr<SessionCore> old = TakeParked(token_id, secret, &mismatch);
  if (old == nullptr && !mismatch) {
    // Not parked. The predecessor connection may be half-open: the client
    // knows it is dead, the server does not yet. Close it and wait
    // (bounded) for its worker to park the core.
    SessionPtr victim;
    {
      MutexLock guard(parked_mu_);
      auto it = live_tokens_.find(token_id);
      if (it != live_tokens_.end()) victim = it->second;
    }
    if (victim != nullptr && victim != s) {
      BeginClose(victim);
      const TimePoint deadline = Now() + kResumeStealTimeout;
      for (;;) {
        old = TakeParked(token_id, secret, &mismatch);
        if (old != nullptr || mismatch) break;
        bool still_live;
        {
          MutexLock guard(parked_mu_);
          still_live = live_tokens_.count(token_id) > 0;
        }
        if (!still_live) {
          // Teardown ran and chose not to park (nothing worth keeping)
          // — unless it parked between our two probes.
          old = TakeParked(token_id, secret, &mismatch);
          break;
        }
        if (Now() >= deadline) {
          // The predecessor's worker is wedged in a slow operation (e.g.
          // a send timing out against the dead peer). Distinct from
          // kNotFound so the client retries instead of giving up.
          return StatusOnlyPayload(
              Status::ResourceExhausted("predecessor session still closing"));
        }
        SleepFor(kResumeStealPoll);
      }
    }
  }
  if (old == nullptr) {
    // Unknown token, wrong secret, or an expired lease: the state is
    // gone. (Wrong secret is deliberately indistinguishable.)
    return StatusOnlyPayload(
        Status::NotFound("session lease expired or token unknown"));
  }

  // Adopt: the fresh core this connection got at accept (and any token
  // its own Hello issued) is discarded in favor of the resumed one.
  {
    MutexLock guard(parked_mu_);
    if (s->core->token_id != 0) live_tokens_.erase(s->core->token_id);
    live_tokens_[token_id] = s;
  }
  s->core = std::move(old);
  s->tx_id.store(s->core->tx != nullptr ? s->core->tx->id() : 0,
                 std::memory_order_release);
  stat_sessions_resumed_.fetch_add(1, std::memory_order_relaxed);

  WireWriter w;
  PutStatus(&w, Status::OK());
  w.U8(s->core->tx != nullptr ? 1 : 0);
  return std::move(w.str());
}

// --- Leases ---------------------------------------------------------------

void Server::ParkOrAbort(Session* s) {
  SessionCore* core = s->core.get();
  const bool worth_keeping =
      core->token_id != 0 &&
      (core->tx != nullptr || !core->outcomes.empty());
  if (!LeasesActive() || !worth_keeping) {
    AbortSessionTx(s);
    MutexLock guard(parked_mu_);
    if (core->token_id != 0) {
      auto it = live_tokens_.find(core->token_id);
      if (it != live_tokens_.end() && it->second.get() == s) {
        live_tokens_.erase(it);
      }
    }
    return;
  }
  s->tx_id.store(0, std::memory_order_release);
  {
    MutexLock guard(parked_mu_);
    auto it = live_tokens_.find(core->token_id);
    if (it != live_tokens_.end() && it->second.get() == s) {
      live_tokens_.erase(it);
    }
    parked_[core->token_id] =
        ParkedCore{std::move(s->core), Now() + options_.session_lease};
  }
  s->core = std::make_unique<SessionCore>();
  stat_sessions_parked_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<Server::SessionCore> Server::TakeParked(uint64_t token_id,
                                                        uint64_t secret,
                                                        bool* mismatch) {
  *mismatch = false;
  MutexLock guard(parked_mu_);
  auto it = parked_.find(token_id);
  if (it == parked_.end()) return nullptr;
  if (it->second.core->token_secret != secret) {
    *mismatch = true;
    return nullptr;
  }
  std::unique_ptr<SessionCore> core = std::move(it->second.core);
  parked_.erase(it);
  return core;
}

void Server::ExpireLeases() {
  if (options_.session_lease <= Duration::zero()) return;
  const TimePoint now = Now();
  std::vector<std::unique_ptr<SessionCore>> expired;
  {
    MutexLock guard(parked_mu_);
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (now >= it->second.expiry) {
        expired.push_back(std::move(it->second.core));
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The abort runs on the event loop — an exception to its "never touch
  // the engine" rule, but a parked transaction has no thread waiting on
  // anything (its owner is gone), so the abort cannot block on a lock
  // wait; it only releases.
  for (std::unique_ptr<SessionCore>& core : expired) {
    stat_leases_expired_.fetch_add(1, std::memory_order_relaxed);
    if (core->last_error.ok()) {
      core->last_error = Status::TxAborted("session lease expired");
    }
    AbortCore(core.get());
  }
}

void Server::AbortAllParked() {
  std::vector<std::unique_ptr<SessionCore>> all;
  {
    MutexLock guard(parked_mu_);
    for (auto& [token, parked] : parked_) all.push_back(std::move(parked.core));
    parked_.clear();
  }
  for (std::unique_ptr<SessionCore>& core : all) AbortCore(core.get());
}

std::string Server::HandleDomOp(const SessionPtr& s, const Frame& frame,
                                WireReader& r) {
  if (s->core->tx == nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("no open transaction on this session"));
  }
  LocalDom dom(deps_.nm, s->core->tx.get());
  WireWriter w;
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kGetElementById: {
      std::string id;
      if (!r.Str(&id) || !r.AtEnd()) return {};
      auto res = dom.GetElementById(id);
      PutStatus(&w, res.status());
      if (res.ok()) {
        w.U8(res->has_value() ? 1 : 0);
        if (res->has_value()) w.SplidVal(**res);
      }
      break;
    }
    case MsgType::kGetAttributes: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetAttributes(node);
      PutStatus(&w, res.status());
      if (res.ok()) {
        w.U32(static_cast<uint32_t>(res->size()));
        for (const auto& [k, v] : *res) {
          w.Str(k);
          w.Str(v);
        }
      }
      break;
    }
    case MsgType::kGetFirstChild:
    case MsgType::kGetLastChild:
    case MsgType::kGetNextSibling: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      const MsgType t = static_cast<MsgType>(frame.type);
      auto res = t == MsgType::kGetFirstChild  ? dom.GetFirstChild(node)
                 : t == MsgType::kGetLastChild ? dom.GetLastChild(node)
                                               : dom.GetNextSibling(node);
      PutStatus(&w, res.status());
      if (res.ok()) {
        w.U8(res->has_value() ? 1 : 0);
        if (res->has_value()) {
          PutNode(&w, WireNode{(*res)->splid.Encode(),
                               static_cast<uint8_t>((*res)->kind),
                               (*res)->name});
        }
      }
      break;
    }
    case MsgType::kGetChildNodes: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetChildNodes(node);
      PutStatus(&w, res.status());
      if (res.ok()) {
        w.U32(static_cast<uint32_t>(res->size()));
        for (const DomNode& n : *res) {
          PutNode(&w, WireNode{n.splid.Encode(), static_cast<uint8_t>(n.kind),
                               n.name});
        }
      }
      break;
    }
    case MsgType::kGetTextContent: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetTextContent(node);
      PutStatus(&w, res.status());
      if (res.ok()) w.Str(*res);
      break;
    }
    case MsgType::kDeclareUpdateIntent: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      PutStatus(&w, dom.DeclareUpdateIntent(node));
      break;
    }
    case MsgType::kUpdateText: {
      Splid node;
      std::string content;
      if (!r.SplidVal(&node) || !r.Str(&content) || !r.AtEnd()) return {};
      PutStatus(&w, dom.UpdateText(node, content));
      break;
    }
    case MsgType::kSetAttribute: {
      Splid node;
      std::string name, value;
      if (!r.SplidVal(&node) || !r.Str(&name) || !r.Str(&value) || !r.AtEnd()) {
        return {};
      }
      PutStatus(&w, dom.SetAttribute(node, name, value));
      break;
    }
    case MsgType::kAppendSubtree: {
      Splid parent;
      SubtreeSpec spec;
      if (!r.SplidVal(&parent) || !r.Spec(&spec) || !r.AtEnd()) return {};
      auto res = dom.AppendSubtree(parent, spec);
      PutStatus(&w, res.status());
      if (res.ok()) w.SplidVal(*res);
      break;
    }
    case MsgType::kDeleteSubtree: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      PutStatus(&w, dom.DeleteSubtree(node));
      break;
    }
    case MsgType::kRename: {
      Splid node;
      std::string name;
      if (!r.SplidVal(&node) || !r.Str(&name) || !r.AtEnd()) return {};
      PutStatus(&w, dom.Rename(node, name));
      break;
    }
    default:
      return {};
  }
  // Remember the last operation failure so a teardown abort is
  // classified like the in-process coordinator would classify it.
  if (w.str().size() >= 4) {
    uint32_t code;
    std::memcpy(&code, w.str().data(), 4);
    if (code != 0) {
      WireReader check(w.str());
      Status op_status;
      if (GetStatus(&check, &op_status)) s->core->last_error = op_status;
    }
  }
  return std::move(w.str());
}

std::string Server::HandleStats() {
  WireWriter w;
  PutStatus(&w, Status::OK());
  PutSnapshot(&w, run_stats().Snapshot());
  return std::move(w.str());
}

std::string Server::HandleWorkloadInfo() {
  WireWriter w;
  if (deps_.info == nullptr) {
    PutStatus(&w, Status::NotFound("server has no workload loaded"));
    return std::move(w.str());
  }
  PutStatus(&w, Status::OK());
  w.U64(deps_.info->num_nodes);
  const auto put_list = [&w](const std::vector<std::string>& v) {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const std::string& s : v) w.Str(s);
  };
  put_list(deps_.info->book_ids);
  put_list(deps_.info->topic_ids);
  put_list(deps_.info->person_ids);
  return std::move(w.str());
}

void Server::AbortCore(SessionCore* core) {
  if (core->tx == nullptr) return;
  (void)deps_.txm->Abort(*core->tx);
  metrics_.RecordAbort(core->tx_type,
                       core->last_error.ok()
                           ? Status::TxAborted("session closed")
                           : core->last_error);
  stat_tx_aborted_.fetch_add(1, std::memory_order_relaxed);
  core->tx.reset();
  active_tx_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::AbortSessionTx(Session* s) {
  AbortCore(s->core.get());
  s->tx_id.store(0, std::memory_order_release);
}

// --- Shutdown -------------------------------------------------------------

void Server::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (draining_.exchange(true)) return;
  accepting_.store(false, std::memory_order_release);

  // Parked cores hold active_tx_ slots but no client will ever finish
  // them now (accepting_ is off) — abort them up front so phase 1 only
  // waits on genuinely in-flight work.
  AbortAllParked();

  // Phase 1: wait for in-flight transactions to finish on their own.
  const TimePoint deadline = Now() + options_.drain_timeout;
  while (active_tx_.load(std::memory_order_acquire) > 0 && Now() < deadline) {
    SleepFor(kDrainPollInterval);
  }

  // Phase 2: evict stragglers. Closing cancels any parked lock waits and
  // aborts each session's transaction (immediately, or via its worker).
  std::vector<SessionPtr> remaining;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) remaining.push_back(s);
  }
  for (const SessionPtr& s : remaining) BeginClose(s);
  const TimePoint hard_deadline = Now() + options_.drain_timeout;
  while (active_tx_.load(std::memory_order_acquire) > 0 &&
         Now() < hard_deadline) {
    SleepFor(kDrainPollInterval);
  }
  // A teardown that raced the draining_ flag may have parked after the
  // first flush; nothing new can park from here (LeasesActive is false).
  AbortAllParked();

  // Phase 3: everything committed or aborted is made durable.
  if (deps_.wal != nullptr) (void)deps_.wal->Sync();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  Drain();
  if (stopping_.exchange(true)) return;
  if (stop_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (loop_thread_.joinable()) loop_thread_.join();

  // Single-threaded from here: release every remaining resource.
  std::vector<SessionPtr> remaining;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) remaining.push_back(s);
    sessions_.clear();
  }
  for (const SessionPtr& s : remaining) {
    AbortSessionTx(s.get());
    ::close(s->fd);
    stat_sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  AbortAllParked();
  {
    MutexLock guard(parked_mu_);
    live_tokens_.clear();
  }
  CloseDeadFds();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : {stop_fd_, loop_epoll_fd_, work_epoll_fd_}) {
    if (fd >= 0) ::close(fd);
  }
  listen_fd_ = stop_fd_ = loop_epoll_fd_ = work_epoll_fd_ = -1;
}

RunStats Server::run_stats() const {
  RunStats run = metrics_.Snapshot();
  run.lock_stats = deps_.table->GetStats();
  run.buffer = deps_.nm->document().buffer().io_stats();
  if (deps_.wal != nullptr) run.wal = deps_.wal->stats();
  run.server = stats();
  return run;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.sessions_opened = stat_sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = stat_sessions_closed_.load(std::memory_order_relaxed);
  s.sessions_rejected =
      stat_sessions_rejected_.load(std::memory_order_relaxed);
  s.frames_received = stat_frames_received_.load(std::memory_order_relaxed);
  s.responses_sent = stat_responses_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = stat_protocol_errors_.load(std::memory_order_relaxed);
  s.admission_rejected =
      stat_admission_rejected_.load(std::memory_order_relaxed);
  s.deadline_rejected =
      stat_deadline_rejected_.load(std::memory_order_relaxed);
  s.idle_reaped = stat_idle_reaped_.load(std::memory_order_relaxed);
  s.tx_begun = stat_tx_begun_.load(std::memory_order_relaxed);
  s.tx_committed = stat_tx_committed_.load(std::memory_order_relaxed);
  s.tx_aborted = stat_tx_aborted_.load(std::memory_order_relaxed);
  s.sessions_parked = stat_sessions_parked_.load(std::memory_order_relaxed);
  s.sessions_resumed = stat_sessions_resumed_.load(std::memory_order_relaxed);
  s.leases_expired = stat_leases_expired_.load(std::memory_order_relaxed);
  s.dedup_hits = stat_dedup_hits_.load(std::memory_order_relaxed);
  {
    MutexLock guard(sessions_mu_);
    s.active_sessions = sessions_.size();
  }
  s.active_tx = active_tx_.load(std::memory_order_acquire);
  {
    MutexLock guard(parked_mu_);
    s.parked_sessions = parked_.size();
  }
  return s;
}

}  // namespace net
}  // namespace xtc
