// Named counters. Every stats struct (LockTableStats, WalStats, ...)
// lists its fields exactly once, next to their declaration, in a static
//
//   template <typename F> static void Fields(F&& f) {
//     f("requests", &LockTableStats::requests);
//     ...
//   }
//
// and everything else is generic over that listing: summing two structs,
// overlaying one on another, flattening into a (name, value) snapshot,
// printing the snapshot as text or JSON, and shipping it over the wire
// (net/wire.h PutSnapshot). The member pointers work on const and
// mutable structs alike. docs/metrics.md names every snapshot entry;
// tests/metrics_names_test.cc keeps the two in step.

#ifndef XTC_UTIL_STATS_H_
#define XTC_UTIL_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace xtc {

/// One entry of a flat stats snapshot ("lock.requests", 1234).
struct StatValue {
  std::string name;
  uint64_t value = 0;
  bool operator==(const StatValue&) const = default;
};
using StatsSnapshot = std::vector<StatValue>;

/// *sum += s, field by field.
template <typename S>
void Accumulate(S* sum, const S& s) {
  S::Fields([&](const char*, auto member) { sum->*member += s.*member; });
}

/// Copies every nonzero field of `src` over `*dst` (merging two partial
/// views of one component, each of which fills its own fields).
template <typename S>
void Overlay(S* dst, const S& src) {
  S::Fields([&](const char*, auto member) {
    if (src.*member != 0) dst->*member = src.*member;
  });
}

/// Appends `prefix + name` for every listed field of `s`.
template <typename S>
void AppendFields(std::string_view prefix, const S& s, StatsSnapshot* out) {
  S::Fields([&](const char* name, auto member) {
    out->push_back(StatValue{std::string(prefix) + name,
                             static_cast<uint64_t>(s.*member)});
  });
}

/// One "name value" line per entry, in snapshot order.
void PrintStatsText(std::FILE* out, const StatsSnapshot& snapshot);
/// One flat JSON object, keys in snapshot order.
void PrintStatsJson(std::FILE* out, const StatsSnapshot& snapshot);

}  // namespace xtc

#endif  // XTC_UTIL_STATS_H_
