// Microbenchmark: follower catch-up.
//
// Drains a log of committed mutations into a follower bootstrapped from
// the checkpoint-time images, in flush-chunk units, against the
// simulated page device with a realistic per-I/O latency (DESIGN.md §2)
// — the log-shipping apply rate a late-attached or restarted follower
// sees.
//
//   ./bench/micro_recovery            full run, human-readable table
//   ./bench/micro_recovery --smoke    quick CI run; exits non-zero if
//                                     the follower loses a commit
//   ./bench/micro_recovery --json     machine-readable results
//                                     (committed as BENCH_replication.json)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "node/document.h"
#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "storage/page_file.h"
#include "tamix/bib_generator.h"
#include "wal/wal.h"

using namespace xtc;
using namespace xtc::bench;

namespace {

// >= 50 us so the device model sleeps (not spins), the way a real
// in-flight disk request waits.
constexpr uint32_t kIoLatencyUs = 100;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "FAIL: %s: %s\n", what, status.message().c_str());
  std::exit(1);
}

// --- A database with a long since-checkpoint log ---------------------

struct Artifacts {
  StorageOptions storage;
  PageFileImage checkpoint_disk;  // the disk as of the setup checkpoint
  std::string checkpoint_log;     // the log as of the setup checkpoint
  std::string log;                // every mutation since lives only here
  uint64_t commits = 0;
};

Artifacts BuildLoggedDatabase(int commits) {
  Artifacts a;
  // A modest document with a generous pool: the base image loads once,
  // so the catch-up cost is dominated by applying the since-checkpoint
  // log (the thing being measured), not pool thrash.
  a.storage.buffer_pool_pages = 4096;
  a.storage.io_latency_us = kIoLatencyUs;
  Document doc(a.storage);
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  if (!info.ok()) Die("GenerateBib", info.status());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  if (Status st = doc.buffer().FlushAll(); !st.ok()) Die("FlushAll", st);
  if (Status st = doc.LogCheckpoint(); !st.ok()) Die("LogCheckpoint", st);
  a.checkpoint_disk = doc.page_file().CloneImage();
  a.checkpoint_log = wal.DurableImage();

  // Committed renames scattered across the document: each logs a page
  // image the follower must apply (the disk stays at the checkpoint).
  const char* names[] = {"chapter", "author", "lend", "person"};
  const NameSurrogate renamed = doc.vocabulary().Intern("bench-renamed");
  for (int i = 0; i < commits; ++i) {
    const char* name = names[i % 4];
    auto target = doc.NthElementByName(
        i % 8 < 4 ? name : "bench-renamed", static_cast<size_t>(i / 8) % 10);
    if (!target.has_value()) {
      target = doc.NthElementByName(name, 0);
    }
    if (!target.has_value()) Die("rename target", Status::NotFound("none"));
    const NameSurrogate to = i % 8 < 4
                                 ? renamed
                                 : doc.vocabulary().Intern(name);
    {
      ScopedWalTx scope(static_cast<uint64_t>(i + 1));
      if (Status st = doc.RenameElement(*target, to); !st.ok()) {
        Die("RenameElement", st);
      }
    }
    Status st = wal.AppendCommit(static_cast<uint64_t>(i + 1),
                                 static_cast<uint64_t>(i + 1), "bench");
    if (!st.ok()) Die("AppendCommit", st);
    ++a.commits;
  }
  a.log = wal.DurableImage();
  return a;
}

struct CatchUp {
  double secs = 0;
  double mib_per_sec = 0;
  uint64_t commits_applied = 0;
  uint64_t log_bytes = 0;
};

CatchUp TimeCatchUp(const Artifacts& a, uint64_t chunk_bytes) {
  // Bootstrap a follower from the checkpoint-time images, then drain the
  // rest of the primary's log into it in flush-chunk units — exactly
  // what a follower attached late (or restarted) does to catch back up.
  Wal source(WalOptions{}, a.log);
  FollowerOptions fo;
  fo.storage = a.storage;
  auto follower =
      Follower::Bootstrap(fo, a.checkpoint_disk, a.checkpoint_log);
  if (!follower.ok()) Die("Bootstrap", follower.status());
  LogShipperOptions so;
  so.chunk_bytes = chunk_bytes;
  LogShipper shipper(&source, follower->get(), so);
  CatchUp c;
  c.log_bytes = a.log.size() - a.checkpoint_log.size();
  const auto start = std::chrono::steady_clock::now();
  if (Status st = shipper.Drain(); !st.ok()) Die("Drain", st);
  c.secs = Seconds(std::chrono::steady_clock::now() - start);
  c.mib_per_sec =
      c.secs == 0 ? 0
                  : static_cast<double>(c.log_bytes) / (1024.0 * 1024.0) /
                        c.secs;
  c.commits_applied = (*follower)->stats().commits_applied;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const int commits = smoke ? 120 : 400;

  if (!json) PrintHeader("micro_recovery", "follower catch-up");

  const Artifacts artifacts = BuildLoggedDatabase(commits);
  const CatchUp catch_up = TimeCatchUp(artifacts, 4096);
  if (catch_up.commits_applied != artifacts.commits) {
    std::fprintf(stderr, "FAIL: catch-up lost commits (%llu of %llu)\n",
                 static_cast<unsigned long long>(catch_up.commits_applied),
                 static_cast<unsigned long long>(artifacts.commits));
    return 1;
  }

  if (json) {
    std::printf("{\n  \"benchmark\": \"micro_recovery follower catch-up\",\n");
    std::printf("  \"io_latency_us\": %u,\n", kIoLatencyUs);
    std::printf("  \"catchup_commits\": %llu,\n",
                static_cast<unsigned long long>(artifacts.commits));
    std::printf("  \"catchup_log_bytes\": %llu,\n",
                static_cast<unsigned long long>(catch_up.log_bytes));
    std::printf("  \"catchup_ms\": %.1f,\n", catch_up.secs * 1000.0);
    std::printf("  \"catchup_mib_per_sec\": %.1f\n}\n", catch_up.mib_per_sec);
  } else {
    std::printf("\nfollower catch-up: %llu log bytes, %llu commits, %u us/io\n",
                static_cast<unsigned long long>(catch_up.log_bytes),
                static_cast<unsigned long long>(catch_up.commits_applied),
                kIoLatencyUs);
    std::printf("  %7.1f ms  (%.1f MiB/s applied)\n", catch_up.secs * 1000.0,
                catch_up.mib_per_sec);
  }
  return 0;
}
