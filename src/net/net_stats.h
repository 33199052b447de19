// Counters of the socket front-end (DESIGN.md §8): the server, a
// client's resilience machinery, and the chaos proxy. Header-only and
// dependency-free so the metrics layer can embed them (RunStats) without
// pulling in sockets.

#ifndef XTC_NET_NET_STATS_H_
#define XTC_NET_NET_STATS_H_

#include <cstdint>

namespace xtc {
namespace net {

struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_rejected = 0;  // over max_sessions
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t protocol_errors = 0;  // framing/decode failures -> disconnect
  uint64_t admission_rejected = 0;  // tx cap + queue cap
  uint64_t deadline_rejected = 0;
  uint64_t idle_reaped = 0;
  uint64_t tx_begun = 0;
  uint64_t tx_committed = 0;
  uint64_t tx_aborted = 0;
  uint64_t sessions_parked = 0;   // disconnected under an active lease
  uint64_t sessions_resumed = 0;  // successful kResume adoptions
  uint64_t leases_expired = 0;    // parked cores that aged out (aborted)
  uint64_t dedup_hits = 0;        // retried requests answered from table
  // Gauges (after Stop both session gauges must be zero: leak check).
  uint64_t active_sessions = 0;
  uint64_t active_tx = 0;
  uint64_t parked_sessions = 0;

  /// The public names (util/stats.h; snapshot prefix "net.server.").
  template <typename F>
  static void Fields(F&& f) {
    f("sessions_opened", &ServerStats::sessions_opened);
    f("sessions_closed", &ServerStats::sessions_closed);
    f("sessions_rejected", &ServerStats::sessions_rejected);
    f("frames_received", &ServerStats::frames_received);
    f("responses_sent", &ServerStats::responses_sent);
    f("protocol_errors", &ServerStats::protocol_errors);
    f("admission_rejected", &ServerStats::admission_rejected);
    f("deadline_rejected", &ServerStats::deadline_rejected);
    f("idle_reaped", &ServerStats::idle_reaped);
    f("tx_begun", &ServerStats::tx_begun);
    f("tx_committed", &ServerStats::tx_committed);
    f("tx_aborted", &ServerStats::tx_aborted);
    f("sessions_parked", &ServerStats::sessions_parked);
    f("sessions_resumed", &ServerStats::sessions_resumed);
    f("leases_expired", &ServerStats::leases_expired);
    f("dedup_hits", &ServerStats::dedup_hits);
    f("active_sessions", &ServerStats::active_sessions);
    f("active_tx", &ServerStats::active_tx);
    f("parked_sessions", &ServerStats::parked_sessions);
  }
};

/// Client-side resilience counters (all monotonic).
struct ClientNetStats {
  uint64_t reconnects = 0;        // successful re-handshakes
  uint64_t resumes = 0;           // successful kResume adoptions
  uint64_t lease_expired = 0;     // kResume answered kNotFound
  uint64_t retried_requests = 0;  // requests re-sent after reconnect
  uint64_t unknown_commits = 0;   // commits resolved kUnknown
  uint64_t io_timeouts = 0;       // poll deadlines that fired

  /// The public names (util/stats.h; snapshot prefix "net.client.").
  template <typename F>
  static void Fields(F&& f) {
    f("reconnects", &ClientNetStats::reconnects);
    f("resumes", &ClientNetStats::resumes);
    f("lease_expired", &ClientNetStats::lease_expired);
    f("retried_requests", &ClientNetStats::retried_requests);
    f("unknown_commits", &ClientNetStats::unknown_commits);
    f("io_timeouts", &ClientNetStats::io_timeouts);
  }
};

struct ChaosProxyStats {
  uint64_t connections = 0;
  uint64_t chunks = 0;
  uint64_t drops = 0;
  uint64_t truncations = 0;
  uint64_t delays = 0;
  uint64_t duplicates = 0;
  uint64_t cuts = 0;
  uint64_t stalls = 0;  // swallowed chunks past a stall point
  uint64_t bytes_client_to_server = 0;
  uint64_t bytes_server_to_client = 0;

  /// The public names (util/stats.h; snapshot prefix "net.chaos.").
  template <typename F>
  static void Fields(F&& f) {
    f("connections", &ChaosProxyStats::connections);
    f("chunks", &ChaosProxyStats::chunks);
    f("drops", &ChaosProxyStats::drops);
    f("truncations", &ChaosProxyStats::truncations);
    f("delays", &ChaosProxyStats::delays);
    f("duplicates", &ChaosProxyStats::duplicates);
    f("cuts", &ChaosProxyStats::cuts);
    f("stalls", &ChaosProxyStats::stalls);
    f("bytes_client_to_server", &ChaosProxyStats::bytes_client_to_server);
    f("bytes_server_to_client", &ChaosProxyStats::bytes_server_to_client);
  }
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_NET_STATS_H_
