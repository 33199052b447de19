// faultfuzz: seeded fault campaigns over the whole stack
// (docs/robustness.md "Fault campaigns").
//
// Each seed runs a short serializable CLUSTER1 workload, injures it at
// the site the seed selects, and holds the outcome to the commit oracle
// of src/fuzz/campaign.h:
//
//   crash  hard-kill the primary, recover from the durable images (every
//          8th seed kills the recovery too and recovers again)
//   pair   kill the primary or its log-shipping follower, drain, read
//          the follower as a replica, promote it
//   net    run over loopback sockets under a rotating network-injury
//          mode with resilient clients and leased sessions
//
// Usage:
//   faultfuzz --campaign crash|pair|net [--seeds N] [--start S] [--smoke] [-v]
//
// --seeds N   seeds to run, N >= 1 (default 32)
// --start S   first seed (default 1; seeds are S..S+N-1)
// --smoke     CI preset: halve the per-run duration
// -v          print one line per seed instead of only misses and failures
//
// Exits 0 iff every seed passes, 1 on a failed seed, 2 on bad arguments.
// A seed whose injury never fired still passes (the full oracle ran),
// but is printed as a miss, since a sweep of misses is not testing
// anything.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "fuzz/campaign.h"

namespace xtc {
namespace {

constexpr const char* kUsage =
    "usage: faultfuzz --campaign crash|pair|net [--seeds N] [--start S] "
    "[--smoke] [-v]\n";

/// Parses a whole decimal argument; false on empty, signed or trailing
/// input and on overflow.
bool ParseNumber(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

void PrintSeed(Campaign campaign, uint64_t seed, const SeedOutcome& o) {
  std::printf("%s  seed %3llu  %-22s commits=%llu injuries=%llu",
              o.injuries > 0 ? "ok  " : "miss",
              static_cast<unsigned long long>(seed),
              SeedInjury(campaign, seed).c_str(),
              static_cast<unsigned long long>(o.committed),
              static_cast<unsigned long long>(o.injuries));
  switch (campaign) {
    case Campaign::kCrash:
      std::printf(" redo=%llu/%llu losers=%llu%s%s",
                  static_cast<unsigned long long>(o.db.stats.records_redone),
                  static_cast<unsigned long long>(o.db.stats.records_scanned),
                  static_cast<unsigned long long>(o.db.stats.losers_undone),
                  o.db.stats.torn_log_tail ? " torn-tail" : "",
                  o.recovery_crashed ? " recovery-crashed" : "");
      break;
    case Campaign::kPair:
      std::printf(" applied=%llu shipped=%lluB losers=%llu",
                  static_cast<unsigned long long>(o.run.repl.commits_applied),
                  static_cast<unsigned long long>(o.run.repl.shipped_bytes),
                  static_cast<unsigned long long>(o.db.stats.losers_undone));
      break;
    case Campaign::kNet: {
      const net::ServerStats& server = o.run.server;
      std::printf(" reconnects=%llu resumes=%llu dedup=%llu parked=%llu",
                  static_cast<unsigned long long>(o.run.clients.reconnects),
                  static_cast<unsigned long long>(server.sessions_resumed),
                  static_cast<unsigned long long>(server.dedup_hits),
                  static_cast<unsigned long long>(server.sessions_parked));
      break;
    }
  }
  std::printf("\n");
}

int Sweep(Campaign campaign, uint64_t seeds, uint64_t start, bool smoke,
          bool verbose) {
  struct Site {
    uint64_t seeds = 0;
    uint64_t injured = 0;
  };
  std::map<std::string, Site> sites;
  uint64_t failures = 0;
  uint64_t injured = 0;
  uint64_t recovery_crashed = 0;
  uint64_t commits = 0;
  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = start + i;
    RunConfig run = CampaignRunConfig(campaign, seed);
    if (smoke) run.run_duration = run.run_duration / 2;
    auto outcome = RunSeed(campaign, seed, run);
    if (!outcome.ok()) {
      std::fprintf(stderr, "FAIL  seed %3llu  %s\n",
                   static_cast<unsigned long long>(seed),
                   outcome.status().message().c_str());
      ++failures;
      continue;
    }
    Site& site = sites[SeedInjury(campaign, seed)];
    ++site.seeds;
    if (outcome->injuries > 0) {
      ++site.injured;
      ++injured;
    }
    if (outcome->recovery_crashed) ++recovery_crashed;
    commits += outcome->committed;
    if (verbose || outcome->injuries == 0) PrintSeed(campaign, seed, *outcome);
  }
  std::printf(
      "faultfuzz --campaign %s: %llu seed(s), %llu injured, %llu miss(es), "
      "%llu recovery kill(s), %llu commits verified, %llu failure(s)\n",
      std::string(CampaignName(campaign)).c_str(),
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(injured),
      static_cast<unsigned long long>(seeds - failures - injured),
      static_cast<unsigned long long>(recovery_crashed),
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(failures));
  for (const auto& [name, site] : sites) {
    std::printf("  %-22s %3llu seed(s), %3llu injured\n", name.c_str(),
                static_cast<unsigned long long>(site.seeds),
                static_cast<unsigned long long>(site.injured));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  std::optional<xtc::Campaign> campaign;
  uint64_t seeds = 32;
  uint64_t start = 1;
  bool smoke = false;
  bool verbose = false;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(argv[i], "--campaign") == 0) {
      campaign = xtc::ParseCampaign(next == nullptr ? "" : next);
      ok = campaign.has_value();
      ++i;
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      ok = xtc::ParseNumber(next, &seeds) && seeds > 0;
      ++i;
    } else if (std::strcmp(argv[i], "--start") == 0) {
      ok = xtc::ParseNumber(next, &start);
      ++i;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      ok = false;
    }
  }
  if (!ok || !campaign.has_value()) {
    std::fputs(xtc::kUsage, stderr);
    return 2;
  }
  return xtc::Sweep(*campaign, seeds, start, smoke, verbose);
}
