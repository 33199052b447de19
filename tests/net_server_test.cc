// Socket front-end tests (DESIGN.md §8), over real loopback sockets:
// transaction lifecycle through the wire, the malformed-bytes battery
// (garbage, truncation, bad CRC, oversized length, mid-frame disconnect),
// admission control, idle reaping, disconnect-aborts-transaction, drain
// cancelling a parked lock waiter, and remote execution of the TaMix
// bodies. The invariant every test ends on: no transaction leaks — the
// engine is quiescent no matter what the client did.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/wire.h"
#include "protocols/protocol_registry.h"
#include "tamix/coordinator.h"
#include "tamix/transactions.h"
#include "util/crc32.h"
#include "util/fault_injector.h"

namespace xtc {
namespace net {
namespace {

/// Spins until `pred` holds (session teardown is asynchronous: the event
/// loop notices the disconnect, a worker aborts the transaction).
template <typename Pred>
bool PollUntil(Pred pred, Duration timeout = std::chrono::seconds(10)) {
  const TimePoint deadline = Now() + timeout;
  while (!pred()) {
    if (Now() > deadline) return false;
    SleepFor(Millis(5));
  }
  return true;
}

/// Raw TCP connection for speaking deliberately broken bytes.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// Sends FIN but keeps reading: the server sees an orderly EOF.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  /// Closes with a zero linger, so the kernel sends RST instead of FIN.
  void Reset() {
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one whole response frame; empty payload pointer result means
  /// EOF / error / timeout.
  bool RecvFrame(FrameHeader* header, std::string* payload) {
    std::string hdr(kHeaderSize, '\0');
    if (!RecvExactly(hdr.data(), kHeaderSize)) return false;
    if (!DecodeHeader(hdr, header).ok()) return false;
    payload->resize(header->payload_len);
    if (header->payload_len > 0 &&
        !RecvExactly(payload->data(), payload->size())) {
      return false;
    }
    return CheckPayload(*header, *payload).ok();
  }

  /// True when the server closed the connection (recv returns 0) within
  /// the socket timeout.
  bool AwaitEof() {
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout/error: connection still open
    }
  }

 private:
  bool RecvExactly(char* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

std::string BeginPayload(IsolationLevel isolation = IsolationLevel::kRepeatable,
                         int lock_depth = 7,
                         TxType type = TxType::kQueryBook) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(isolation));
  w.U8(static_cast<uint8_t>(lock_depth));
  w.U8(static_cast<uint8_t>(type));
  return w.str();
}

// --- Exact stream offsets for the torn-frame batteries --------------------
// The chaos proxy shapes raw bytes, so the batteries compute every cut
// point from the wire encoding itself instead of hard-coding offsets
// that would silently rot when the protocol changes.

size_t OkStatusBytes() {
  WireWriter w;
  PutStatus(&w, Status::OK());
  return w.str().size();
}

size_t HelloRequestBytes() {
  WireWriter w;
  w.Str("xtc-tamix-client");
  return kHeaderSize + w.str().size();
}

/// Hello response: status, version, token id, token secret, lease ms.
size_t HelloResponseBytes() {
  return kHeaderSize + OkStatusBytes() + 1 + 8 + 8 + 4;
}

size_t BeginRequestBytes() { return kHeaderSize + BeginPayload().size(); }

/// Begin response: status, transaction id.
size_t BeginResponseBytes() { return kHeaderSize + OkStatusBytes() + 8; }

size_t CommitRequestBytes() {
  WireWriter w;
  w.Str("");  // empty wal_payload, as Client::Commit() sends by default
  return kHeaderSize + w.str().size();
}

/// Commit response: status, commit sequence number.
size_t CommitResponseBytes() { return kHeaderSize + OkStatusBytes() + 8; }

/// A client that reconnects, resumes and retries; short deadlines so the
/// half-open scenarios resolve in test time.
ClientOptions ResilientOptions() {
  ClientOptions o;
  o.io_timeout = Millis(400);
  o.max_reconnect_attempts = 10;
  o.backoff = Millis(5);
  o.backoff_max = Millis(40);
  o.seed = 7;
  return o;
}

ServerOptions LeaseOptions() {
  ServerOptions o;
  o.session_lease = std::chrono::seconds(30);
  return o;
}

class NetServerTest : public ::testing::Test {
 protected:
  void BuildEngine(Duration wait_timeout = Millis(2000)) {
    auto info = GenerateBib(&doc_, BibConfig::Tiny());
    ASSERT_TRUE(info.ok());
    info_ = std::move(*info);
    LockTableOptions lock_options;
    lock_options.wait_timeout = wait_timeout;
    protocol_ = CreateProtocol("taDOM3+", lock_options);
    ASSERT_NE(protocol_, nullptr);
    lm_ = std::make_unique<LockManager>(protocol_.get());
    tm_ = std::make_unique<TransactionManager>(lm_.get());
    nm_ = std::make_unique<NodeManager>(&doc_, lm_.get());
  }

  void StartServer(ServerOptions options = {},
                   FaultInjector* faults = nullptr) {
    if (nm_ == nullptr) BuildEngine();
    server_ = std::make_unique<Server>(
        Server::Deps{nm_.get(), tm_.get(), &protocol_->table(), &info_,
                     nullptr, faults},
        options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The one invariant every scenario must restore: no leaked
  /// transactions, no leaked sessions.
  void ExpectQuiescent() {
    EXPECT_TRUE(PollUntil([&] { return tm_->num_active() == 0; }))
        << tm_->num_active() << " transactions still active";
  }

  Document doc_;
  BibInfo info_;
  std::unique_ptr<XmlProtocol> protocol_;
  std::unique_ptr<LockManager> lm_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<NodeManager> nm_;
  std::unique_ptr<Server> server_;  // last member: destroyed first
};

TEST_F(NetServerTest, BeginNavigateCommit) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  auto tx_id = client.Begin(IsolationLevel::kRepeatable, 7,
                            TxType::kQueryBook);
  ASSERT_TRUE(tx_id.ok());
  EXPECT_GT(*tx_id, 0u);

  RemoteDom dom(&client);
  auto book = dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE(book->has_value());
  auto children = dom.GetChildNodes(**book);
  ASSERT_TRUE(children.ok());
  EXPECT_FALSE(children->empty());
  auto attrs = dom.GetAttributes(**book);
  ASSERT_TRUE(attrs.ok());
  auto missing = dom.GetElementById("no-such-id");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());

  auto seq = client.Commit();
  ASSERT_TRUE(seq.ok());
  client.Close();

  ExpectQuiescent();
  EXPECT_EQ(server_->stats().tx_committed, 1u);
}

TEST_F(NetServerTest, LifecycleErrorsKeepConnectionUsable) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Commit without a transaction: an error, not a disconnect.
  EXPECT_EQ(client.Commit().status().code(), StatusCode::kInvalidArgument);
  // Abort without a transaction: a no-op.
  EXPECT_TRUE(client.Abort().ok());
  // Begin twice: second fails, the open transaction survives.
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_EQ(client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Commit().ok());
  client.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, DomOpWithoutTransactionIsError) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  RemoteDom dom(&client);
  EXPECT_EQ(dom.GetElementById(info_.book_ids[0]).status().code(),
            StatusCode::kInvalidArgument);
  // Still usable afterwards.
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(client.Abort().ok());
  ExpectQuiescent();
}

// --- Malformed-bytes battery ---------------------------------------------

TEST_F(NetServerTest, GarbageBytesDisconnectCleanly) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string junk(64, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>(i * 37 + 11);
  }
  ASSERT_TRUE(conn.Send(junk));
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
  EXPECT_TRUE(PollUntil([&] { return server_->stats().protocol_errors >= 1; }));
  // The server must survive it: a clean client still works.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(client.Commit().ok());
}

TEST_F(NetServerTest, MidFrameDisconnectAbortsOpenTransaction) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  // A well-formed Begin opens a server-side transaction...
  const std::string begin =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload());
  ASSERT_TRUE(conn.Send(begin));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  {
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    ASSERT_TRUE(st.ok());
  }
  ASSERT_TRUE(PollUntil([&] { return tm_->num_active() == 1; }));

  // ...then the client dies mid-frame (half a header on the wire).
  ASSERT_TRUE(conn.Send(begin.substr(0, kHeaderSize / 2)));
  conn.Close();

  // The abandoned transaction must be aborted, not leaked.
  ExpectQuiescent();
  EXPECT_TRUE(PollUntil([&] { return server_->stats().tx_aborted >= 1; }));
}

TEST_F(NetServerTest, BadPayloadCrcGetsErrorResponseThenDisconnect) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 9, BeginPayload());
  frame[kHeaderSize] = static_cast<char>(frame[kHeaderSize] ^ 1);
  ASSERT_TRUE(conn.Send(frame));

  // The header was sound, so the server can still answer: an error
  // response (echoing request_id), then the connection closes.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 9u);
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, CorruptHeaderDisconnectsSilently) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload());
  frame[2] = static_cast<char>(frame[2] ^ 0x40);  // breaks the header CRC
  ASSERT_TRUE(conn.Send(frame));
  // A corrupted header means the stream cannot be resynchronized: no
  // response (type/request_id are untrustworthy), just a close.
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, OversizedDeclaredLengthDisconnects) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Honest header CRC over a hostile payload_len: the cap check fires.
  std::string frame = EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1,
                                  BeginPayload());
  const uint32_t len = kMaxPayload + 1;
  std::memcpy(frame.data(), &len, sizeof(len));
  const uint32_t crc = Crc32(frame.data(), 16);
  std::memcpy(frame.data() + 16, &crc, sizeof(crc));
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResponseBitOnRequestRejected) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  const std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin) | kResponseBit, 3,
                  BeginPayload());
  ASSERT_TRUE(conn.Send(frame));
  // Framing is intact, so the server answers before disconnecting.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, MalformedRequestPayloadDisconnects) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Structurally valid frame, garbage Begin payload (1 byte short).
  const std::string frame = EncodeFrame(static_cast<uint8_t>(MsgType::kBegin),
                                        4, BeginPayload().substr(0, 2));
  ASSERT_TRUE(conn.Send(frame));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

// --- Admission control ----------------------------------------------------

TEST_F(NetServerTest, InFlightTransactionCapRejectsBegin) {
  ServerOptions options;
  options.max_in_flight_tx = 1;
  StartServer(options);

  Client first, second;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(
      first.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  // Over the cap: clean kResourceExhausted, connection intact.
  EXPECT_EQ(second.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(first.Commit().ok());
  // Capacity freed: the rejected client can begin now.
  EXPECT_TRUE(
      second.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(second.Commit().ok());
  ExpectQuiescent();
  EXPECT_GE(server_->stats().admission_rejected, 1u);
}

TEST_F(NetServerTest, QueueDepthZeroShedsEveryRequest) {
  ServerOptions options;
  options.max_queue_depth = 0;  // degenerate cap: everything is overload
  StartServer(options);
  // Raw connection: even the hello handshake is shed under this cap, so
  // Client::Connect cannot be used.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  ExpectQuiescent();
  EXPECT_GE(server_->stats().admission_rejected, 1u);
}

TEST_F(NetServerTest, SessionCapClosesExtraConnections) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  Client keeper;
  ASSERT_TRUE(keeper.Connect("127.0.0.1", server_->port()).ok());
  // Over the cap: accepted and immediately closed, so either the hello
  // round trip or the connect itself fails.
  Client extra;
  EXPECT_FALSE(extra.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(
      PollUntil([&] { return server_->stats().sessions_rejected >= 1; }));
}

// --- Lifecycle: reap, disconnect, drain -----------------------------------

TEST_F(NetServerTest, IdleSessionIsReaped) {
  ServerOptions options;
  options.idle_timeout = Millis(300);
  StartServer(options);
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Say nothing: the reaper must close us (loop ticks every 250 ms).
  EXPECT_TRUE(conn.AwaitEof());
  EXPECT_TRUE(PollUntil([&] { return server_->stats().idle_reaped >= 1; }));
}

TEST_F(NetServerTest, DisconnectReleasesLocksForOtherClients) {
  StartServer();
  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
          .ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());  // exclusive lock

  // Vanish without commit/abort. The server must abort the orphan and
  // release its locks, or this second client times out below.
  holder.Close();

  Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      next.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom next_dom(&next);
  auto same = next_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(same.ok() && same->has_value());
  ASSERT_TRUE(next_dom.DeclareUpdateIntent(**same).ok());
  EXPECT_TRUE(next_dom.Rename(**same, "book").ok());
  EXPECT_TRUE(next.Commit().ok());
  ExpectQuiescent();
}

TEST_F(NetServerTest, DrainCancelsParkedLockWaiter) {
  // Long lock waits: without cancellation, drain would sit the full
  // wait_timeout behind the parked waiter.
  BuildEngine(/*wait_timeout=*/std::chrono::seconds(60));
  ServerOptions options;
  options.drain_timeout = Millis(300);
  StartServer(options);

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
          .ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());

  // A second client parks inside LockTable::Lock() on the same node (its
  // first read of the renamed book conflicts with the holder's X lock).
  std::atomic<bool> waiter_returned{false};
  std::thread waiter([&] {
    Client blocked;
    if (blocked.Connect("127.0.0.1", server_->port()).ok() &&
        blocked.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
            .ok()) {
      RemoteDom dom(&blocked);
      auto same = dom.GetElementById(info_.book_ids[0]);  // parks here
      if (same.ok() && same->has_value()) {
        (void)dom.DeclareUpdateIntent(**same);
        (void)dom.Rename(**same, "book");
      }
    }
    waiter_returned.store(true);
  });
  SleepFor(Millis(300));  // let the waiter actually park

  const TimePoint drain_start = Now();
  server_->Drain();
  const Duration drain_took = Now() - drain_start;
  // Both transactions were in flight, so the drain burned its bounded
  // timeout then cancelled — far below the 60 s lock wait.
  EXPECT_LT(ToMillis(drain_took), 10000);

  waiter.join();
  EXPECT_TRUE(waiter_returned.load());
  ExpectQuiescent();
  EXPECT_GE(protocol_->table().GetStats().cancelled, 1u);
}

/// Opens a transaction on `holder` that X-locks the first book (rename).
void HoldFirstBook(Client* holder, uint16_t port, const BibInfo& info) {
  ASSERT_TRUE(holder->Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(
      holder->Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
          .ok());
  RemoteDom dom(holder);
  auto book = dom.GetElementById(info.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(dom.Rename(**book, "book").ok());
}

/// Begins on the raw connection, then sends a read of the first book that
/// parks in LockTable::Lock() behind HoldFirstBook's X lock.
void ParkRawWaiter(RawConn* conn, const BibInfo& info) {
  ASSERT_TRUE(conn->ok());
  ASSERT_TRUE(conn->Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn->RecvFrame(&header, &payload));
  WireWriter w;
  w.Str(info.book_ids[0]);
  ASSERT_TRUE(conn->Send(EncodeFrame(
      static_cast<uint8_t>(MsgType::kGetElementById), 2, w.str())));
}

int64_t ProcessCpuMicros() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

TEST_F(NetServerTest, HalfClosedParkedWaiterDoesNotSpin) {
  BuildEngine(/*wait_timeout=*/std::chrono::seconds(3));
  StartServer();
  Client holder;
  HoldFirstBook(&holder, server_->port(), info_);
  RawConn waiter(server_->port());
  ParkRawWaiter(&waiter, info_);
  SleepFor(Millis(200));  // let the request park

  // FIN while the request waits: the fd is readable at EOF, but the
  // session belongs to the parked worker, so nothing may poll it hot.
  waiter.ShutdownWrite();
  SleepFor(Millis(50));
  const int64_t cpu_before = ProcessCpuMicros();
  SleepFor(std::chrono::seconds(1));
  const int64_t cpu_us = ProcessCpuMicros() - cpu_before;
  EXPECT_LT(cpu_us, 200000) << "server burned " << cpu_us
                            << " us of CPU in 1 s with one parked waiter";

  // The wait still ends by its timeout, the answer still reaches the
  // half-closed peer, and the session then closes on the EOF.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(waiter.RecvFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 2u);
  EXPECT_TRUE(waiter.AwaitEof());
  EXPECT_TRUE(holder.Commit().ok());
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResetWhileParkedCancelsTheWaiter) {
  // Leases off and a long wait: only the reset can end the waiter early.
  BuildEngine(/*wait_timeout=*/std::chrono::seconds(60));
  StartServer();
  Client holder;
  HoldFirstBook(&holder, server_->port(), info_);
  RawConn waiter(server_->port());
  ParkRawWaiter(&waiter, info_);
  SleepFor(Millis(200));  // let the request park

  const TimePoint reset_at = Now();
  waiter.Reset();
  ASSERT_TRUE(PollUntil(
      [&] { return protocol_->table().GetStats().cancelled >= 1; }));
  ASSERT_TRUE(PollUntil([&] { return tm_->num_active() == 1; }));
  EXPECT_TRUE(holder.Commit().ok());

  // The competitor gets the same X lock: nothing of the waiter is left.
  Client competitor;
  HoldFirstBook(&competitor, server_->port(), info_);
  EXPECT_TRUE(competitor.Commit().ok());
  EXPECT_LT(ToMillis(Now() - reset_at), 10000);
  ExpectQuiescent();
}

// --- Remote workload ------------------------------------------------------

TEST_F(NetServerTest, AllTaMixBodiesRunRemotely) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  RemoteDom dom(&client);
  TaMixBodyRunner bodies(&info_, Duration::zero());
  Rng rng(1234);

  // Single-threaded, so every body must commit (no contention).
  for (TxType type :
       {TxType::kQueryBook, TxType::kChapter, TxType::kLendAndReturn,
        TxType::kRenameTopic, TxType::kDelBook}) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kRepeatable, 7, type).ok())
        << TxTypeName(type);
    Rng body_rng(rng.Next());
    ASSERT_TRUE(bodies.RunBody(type, dom, body_rng).ok()) << TxTypeName(type);
    ASSERT_TRUE(client.Commit().ok()) << TxTypeName(type);
  }
  ExpectQuiescent();
  EXPECT_EQ(server_->stats().tx_committed, 5u);

  // The server-side metrics saw them: live snapshot mid-run (the
  // MarkRunStart fix), per-type latency percentiles, and the lock,
  // buffer and server counters behind them.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  std::map<std::string, uint64_t> by_name;
  for (const StatValue& v : *stats) by_name[v.name] = v.value;
  EXPECT_EQ(by_name.size(), stats->size()) << "duplicate snapshot names";
  EXPECT_GT(by_name.at("run.duration_ms"), 0u);
  uint64_t committed = 0;
  for (int t = 0; t < kNumTxTypes; ++t) {
    committed +=
        by_name.at("tx." + std::string(TxTypeName(static_cast<TxType>(t))) +
                   ".committed");
  }
  EXPECT_EQ(committed, 5u);
  EXPECT_GT(by_name.at("tx.TAqueryBook.p99_us"), 0u);
  EXPECT_GT(by_name.at("lock.requests"), 0u);
  EXPECT_GT(by_name.at("storage.buffer_hits"), 0u);
  EXPECT_GE(by_name.at("net.server.sessions_opened"), 1u);
  EXPECT_EQ(by_name.at("net.server.tx_committed"), 5u);
}

TEST_F(NetServerTest, WorkloadInfoShipsTheCatalog) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto remote = client.WorkloadInfo();
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->book_ids, info_.book_ids);
  EXPECT_EQ(remote->topic_ids, info_.topic_ids);
  EXPECT_EQ(remote->person_ids, info_.person_ids);
  EXPECT_EQ(remote->num_nodes, info_.num_nodes);
}

TEST_F(NetServerTest, StopWithConnectedIdleClientsIsClean) {
  ServerOptions options;
  options.drain_timeout = Millis(300);  // an open tx burns the full wait
  StartServer(options);
  Client a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      a.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  server_->Stop();
  EXPECT_EQ(tm_->num_active(), 0u);
}

// --- Network resilience: deadlines, leases, resume, exactly-once ----------

TEST_F(NetServerTest, IoDeadlineFiresAgainstHalfOpenPeer) {
  // A peer that acks the connection and then goes silent mid-response
  // header: without poll deadlines the client would block in recv
  // forever. The stall swallows everything past byte 10 of the hello
  // response (half a header) while keeping the connection open.
  StartServer();
  ChaosPlan plan;
  plan.stall_server_to_client = 10;
  ChaosProxy proxy(server_->port(), plan);
  ASSERT_TRUE(proxy.Start().ok());

  ClientOptions opts;
  opts.io_timeout = Millis(250);
  Client client(opts);
  const TimePoint t0 = Now();
  const Status st = client.Connect("127.0.0.1", proxy.port());
  const Duration elapsed = Now() - t0;

  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_LT(ToMillis(elapsed), 5000) << "deadline did not bound the recv";
  EXPECT_GE(client.net_stats().io_timeouts, 1u);
  proxy.Stop();
  ExpectQuiescent();
}

TEST_F(NetServerTest, TornCommitResponseEveryByteResolvesExactlyOnce) {
  // The commit executed; its response is cut off the wire at byte k, for
  // every k across the response header and payload (k == full size cuts
  // right after the last byte). Every cut must resolve to the SAME
  // commit, exactly once, through reconnect + resume + the outcome
  // table — never a second application, never kUnknown.
  //
  // k = 0 is unreachable by byte-cutting (the proxy's cut fires at the
  // end of the preceding chunk, severing before the commit request is
  // even sent); the zero-response-bytes case is exactly what
  // OutcomeRecordedBeforeResponseWrite covers via the net.send fault.
  const size_t pre = HelloResponseBytes() + BeginResponseBytes();
  const size_t resp = CommitResponseBytes();
  for (size_t k = 1; k <= resp; ++k) {
    SCOPED_TRACE("commit response cut at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.cut_server_to_client = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;  // the reconnect goes through untouched
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.tx_aborted, 0u);
    if (k < resp) {
      // The torn response forced the resolution path.
      EXPECT_GE(ss.sessions_parked, 1u);
      EXPECT_EQ(ss.sessions_resumed, 1u);
      EXPECT_EQ(ss.dedup_hits, 1u);
      EXPECT_GE(client.net_stats().reconnects, 1u);
      EXPECT_GE(client.net_stats().retried_requests, 1u);
      EXPECT_FALSE(client.resumed_tx_open())
          << "commit had executed; resume must not find an open tx";
    }
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, TornCommitRequestEveryByteCommitsExactlyOnce) {
  // The commit request is cut off the wire at byte k before the server
  // could assemble it: the transaction parks OPEN under its lease, the
  // resumed client retries, and the commit executes exactly once — this
  // time for real, since the server never saw the original.
  const size_t pre = HelloRequestBytes() + BeginRequestBytes();
  const size_t req = CommitRequestBytes();
  // k = 0 would cut at the end of the Begin request (a different
  // scenario, covered by TornBeginResponseResolvesFromOutcomeTable).
  for (size_t k = 1; k <= req; ++k) {
    SCOPED_TRACE("commit request cut at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.cut_client_to_server = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.tx_aborted, 0u);
    if (k < req) {
      // The server never executed the original: the retry is a fresh
      // execution against the resumed open transaction, not a replay.
      EXPECT_EQ(ss.dedup_hits, 0u);
      EXPECT_EQ(ss.sessions_resumed, 1u);
      EXPECT_TRUE(client.resumed_tx_open());
    }
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, TornBeginResponseResolvesFromOutcomeTable) {
  // Severing right after the full Begin request: the server begun the
  // transaction but the client never learned its id. The retried Begin
  // must be answered from the outcome table — a re-execution would fail
  // ("transaction already open") or, worse, leak a second transaction.
  StartServer(LeaseOptions());
  ChaosPlan plan;
  plan.cut_client_to_server =
      static_cast<int64_t>(HelloRequestBytes() + BeginRequestBytes());
  plan.shape_conn_index = 0;
  ChaosProxy proxy(server_->port(), plan);
  ASSERT_TRUE(proxy.Start().ok());

  Client client(ResilientOptions());
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  auto tx_id = client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook);
  ASSERT_TRUE(tx_id.ok()) << tx_id.status().ToString();
  EXPECT_TRUE(client.Commit().ok());

  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_begun, 1u) << "retried Begin must not open a second tx";
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_GE(ss.dedup_hits, 1u);
  client.Close();
  proxy.Stop();
  ExpectQuiescent();
}

TEST_F(NetServerTest, HalfOpenStallMidCommitResponseResolvesExactlyOnce) {
  // Like the cut battery, but the connection stays open while the bytes
  // vanish (a NAT silently dropping one direction): detection is the
  // client's recv deadline, not EOF. Mid-header and mid-payload points.
  const size_t pre = HelloResponseBytes() + BeginResponseBytes();
  for (size_t k : {size_t{10}, size_t{28}}) {
    SCOPED_TRACE("commit response stalled at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.stall_server_to_client = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.dedup_hits, 1u);
    EXPECT_GE(client.net_stats().io_timeouts, 1u);
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, OutcomeRecordedBeforeResponseWrite) {
  // The ordering invariant behind all of the above, tested at the fault
  // point itself: net.send fires on the commit response (the third send
  // of the session), so the bytes never leave the server — yet the
  // retried commit must still be answered from the outcome table. If
  // recording happened after the write, the retry would find no open
  // transaction and fail.
  FaultInjector faults(42);
  FaultPointConfig fp;
  fp.probability = 1.0;
  fp.one_shot = true;
  fp.skip_first = 2;  // let the hello and begin responses through
  faults.Arm(fault_points::kNetSend, fp);
  StartServer(LeaseOptions(), &faults);

  Client client(ResilientOptions());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  auto seq = client.Commit();
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  EXPECT_EQ(faults.injections(fault_points::kNetSend), 1u);
  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_EQ(ss.dedup_hits, 1u);
  client.Close();
  ExpectQuiescent();
  server_->Stop();
}

TEST_F(NetServerTest, DuplicatedCommitFrameIsAnsweredFromOutcomeTable) {
  // A duplicated frame (retransmission, or the chaos proxy's duplicate
  // injury) replays a request_id the server already executed on the SAME
  // connection. The response must be byte-identical and the commit must
  // not run twice.
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 2, BeginPayload())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));

  WireWriter cw;
  cw.Str("");
  const std::string commit =
      EncodeFrame(static_cast<uint8_t>(MsgType::kCommit), 3, cw.str());
  ASSERT_TRUE(conn.Send(commit));
  std::string first;
  ASSERT_TRUE(conn.RecvFrame(&header, &first));
  {
    WireReader r(first);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    ASSERT_TRUE(st.ok());
  }

  ASSERT_TRUE(conn.Send(commit));  // byte-identical duplicate
  std::string second;
  ASSERT_TRUE(conn.RecvFrame(&header, &second));
  EXPECT_EQ(header.request_id, 3u);
  EXPECT_EQ(first, second) << "replay must return the recorded response";

  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_GE(ss.dedup_hits, 1u);
  conn.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, LeaseParksDisconnectAndKeepsLocksHeld) {
  // With a lease, a disconnect is presumed transient: the transaction
  // parks with its locks HELD (a conflicting writer times out) instead
  // of aborting — the opposite of DisconnectReleasesLocksForOtherClients.
  BuildEngine(/*wait_timeout=*/Millis(250));
  StartServer(LeaseOptions());

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());  // exclusive lock
  holder.Close();

  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));
  EXPECT_EQ(tm_->num_active(), 1u) << "lease must keep the tx alive";

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      probe.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom probe_dom(&probe);
  auto same = probe_dom.GetElementById(info_.book_ids[0]);
  EXPECT_FALSE(same.ok()) << "parked tx must still hold its exclusive lock";
  EXPECT_TRUE(probe.Abort().ok());
  probe.Close();

  server_->Stop();  // drain aborts the parked core
  EXPECT_EQ(tm_->num_active(), 0u);
}

TEST_F(NetServerTest, LeaseExpiryAbortsParkedTransactionAndReleasesLocks) {
  ServerOptions options;
  options.session_lease = Millis(200);
  StartServer(options);

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());
  holder.Close();

  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));
  // Nobody resumes: the lease ages out and the abort path releases the
  // locks just as an immediate disconnect-abort would have.
  ASSERT_TRUE(PollUntil([&] { return server_->stats().leases_expired >= 1; }));
  ExpectQuiescent();
  EXPECT_GE(server_->stats().tx_aborted, 1u);

  Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      next.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom next_dom(&next);
  auto same = next_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(same.ok() && same->has_value());
  ASSERT_TRUE(next_dom.DeclareUpdateIntent(**same).ok());
  EXPECT_TRUE(next_dom.Rename(**same, "book").ok());
  EXPECT_TRUE(next.Commit().ok());
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResumeWithWrongSecretIsNotFound) {
  StartServer(LeaseOptions());

  // First connection: handshake for a token, open a transaction, vanish.
  RawConn first(server_->port());
  ASSERT_TRUE(first.ok());
  WireWriter hw;
  hw.Str("xtc-tamix-client");
  ASSERT_TRUE(first.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kHello), 1, hw.str())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(first.RecvFrame(&header, &payload));
  uint64_t token_id = 0, secret = 0;
  uint32_t lease_ms = 0;
  {
    WireReader r(payload);
    Status st;
    uint8_t version;
    ASSERT_TRUE(GetStatus(&r, &st) && st.ok());
    ASSERT_TRUE(r.U8(&version) && r.U64(&token_id) && r.U64(&secret) &&
                r.U32(&lease_ms));
  }
  EXPECT_NE(token_id, 0u);
  EXPECT_EQ(lease_ms, 30000u);
  ASSERT_TRUE(first.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 2, BeginPayload())));
  ASSERT_TRUE(first.RecvFrame(&header, &payload));
  first.Close();
  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));

  // Second connection: a wrong secret must be indistinguishable from an
  // expired lease (kNotFound), and must NOT burn the parked core.
  RawConn second(server_->port());
  ASSERT_TRUE(second.ok());
  {
    WireWriter w;
    w.U64(token_id);
    w.U64(secret ^ 1);
    ASSERT_TRUE(second.Send(
        EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 1, w.str())));
    ASSERT_TRUE(second.RecvFrame(&header, &payload));
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  }
  {
    WireWriter w;
    w.U64(token_id);
    w.U64(secret);
    ASSERT_TRUE(second.Send(
        EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 2, w.str())));
    ASSERT_TRUE(second.RecvFrame(&header, &payload));
    WireReader r(payload);
    Status st;
    uint8_t tx_open = 0;
    ASSERT_TRUE(GetStatus(&r, &st) && st.ok());
    ASSERT_TRUE(r.U8(&tx_open));
    EXPECT_EQ(tx_open, 1u) << "the parked transaction must still be open";
  }
  ASSERT_TRUE(
      second.Send(EncodeFrame(static_cast<uint8_t>(MsgType::kAbort), 3, "")));
  ASSERT_TRUE(second.RecvFrame(&header, &payload));
  EXPECT_EQ(server_->stats().sessions_resumed, 1u);
  second.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResumeWithoutLeasesIsNotSupported) {
  StartServer();  // session_lease = 0: the pre-lease server
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  WireWriter w;
  w.U64(1);
  w.U64(1);
  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 1, w.str())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
  ExpectQuiescent();
}

// --- Coordinator integration ----------------------------------------------

TEST(NetCoordinatorTest, SocketFrontendRunsCluster1) {
  // The full CLUSTER1 harness with every worker on its own socket: 72
  // remote TaMix clients over loopback against an embedded server. The
  // coordinator's own quiescence checks (lock table empty, zero active
  // transactions) run after the internal server stops.
  RunConfig config;
  config.time_scale = 1.0 / 200.0;  // 5 paper-minutes -> 1.5 s
  config.bib = BibConfig::Tiny();
  config.frontend = Frontend::kSocket;
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->total_committed(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace xtc
