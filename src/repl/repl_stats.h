// Replication counters (log shipping + follower apply), surfaced
// through RunStats (snapshot prefix "repl.", all zero when a run had no
// replication observer attached). Header-only and dependency-free so the
// metrics layer can embed it without linking src/repl/.

#ifndef XTC_REPL_REPL_STATS_H_
#define XTC_REPL_REPL_STATS_H_

#include <cstdint>

namespace xtc {

struct ReplicationStats {
  bool enabled = false;  // a replication observer ran with this run

  // Shipper side.
  uint64_t shipped_bytes = 0;
  uint64_t shipped_chunks = 0;
  uint64_t ship_rounds = 0;  // ShipOnce calls that found work

  // Follower side.
  uint64_t records_applied = 0;
  uint64_t pages_applied = 0;
  uint64_t commits_applied = 0;
  uint64_t checkpoints_applied = 0;
  uint64_t reattaches = 0;  // tree attach-point moves while tailing
  uint64_t resyncs = 0;     // torn-tail truncations of the local log
  uint64_t follower_restarts = 0;

  // Watermarks at the last observation (byte offsets into the log).
  uint64_t applied_lsn = 0;
  uint64_t received_lsn = 0;
  uint64_t source_durable_lsn = 0;
  /// Ship lag: primary durable bytes the follower had not applied yet
  /// at the last observation (0 after a full drain).
  uint64_t ship_lag_bytes() const {
    return source_durable_lsn > applied_lsn ? source_durable_lsn - applied_lsn
                                            : 0;
  }

  /// The public names (util/stats.h; snapshot prefix "repl.").
  template <typename F>
  static void Fields(F&& f) {
    f("shipped_bytes", &ReplicationStats::shipped_bytes);
    f("shipped_chunks", &ReplicationStats::shipped_chunks);
    f("ship_rounds", &ReplicationStats::ship_rounds);
    f("records_applied", &ReplicationStats::records_applied);
    f("pages_applied", &ReplicationStats::pages_applied);
    f("commits_applied", &ReplicationStats::commits_applied);
    f("checkpoints_applied", &ReplicationStats::checkpoints_applied);
    f("reattaches", &ReplicationStats::reattaches);
    f("resyncs", &ReplicationStats::resyncs);
    f("follower_restarts", &ReplicationStats::follower_restarts);
    f("applied_lsn", &ReplicationStats::applied_lsn);
    f("received_lsn", &ReplicationStats::received_lsn);
    f("source_durable_lsn", &ReplicationStats::source_durable_lsn);
  }
};

}  // namespace xtc

#endif  // XTC_REPL_REPL_STATS_H_
