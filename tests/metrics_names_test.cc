// Anti-drift check: every name RunStats::Snapshot() emits is documented
// in the docs/metrics.md tables, and every documented name is emitted.
// Per-type rows are documented once with a `<type>` placeholder.

#include <fstream>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "tamix/metrics.h"

namespace xtc {
namespace {

/// Extracts the backticked name from a markdown table row, "" if the
/// line is not such a row.
std::string TableRowName(const std::string& line) {
  if (line.rfind("| `", 0) != 0) return "";
  const size_t start = 3;
  const size_t end = line.find('`', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

std::set<std::string> DocumentedNames() {
  const std::string path = std::string(XTC_SOURCE_DIR) + "/docs/metrics.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> names;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Snapshot names";
      continue;
    }
    if (!in_section) continue;
    const std::string name = TableRowName(line);
    if (!name.empty()) names.insert(name);
  }
  return names;
}

/// The snapshot's names, with each transaction type folded into `<type>`.
std::set<std::string> SnapshotNames() {
  std::set<std::string> names;
  for (const StatValue& v : RunStats().Snapshot()) {
    std::string name = v.name;
    for (int t = 0; t < kNumTxTypes; ++t) {
      const std::string type =
          "tx." + std::string(TxTypeName(static_cast<TxType>(t))) + ".";
      if (name.rfind(type, 0) == 0) {
        name = "tx.<type>." + name.substr(type.size());
      }
    }
    names.insert(name);
  }
  return names;
}

TEST(MetricsNamesTest, SnapshotNamesAreUnique) {
  const StatsSnapshot snapshot = RunStats().Snapshot();
  std::set<std::string> seen;
  for (const StatValue& v : snapshot) {
    EXPECT_TRUE(seen.insert(v.name).second) << "duplicate name " << v.name;
  }
}

TEST(MetricsNamesTest, CodeAndDocsNameTheSameCounters) {
  const std::set<std::string> in_code = SnapshotNames();
  ASSERT_FALSE(in_code.empty());
  const std::set<std::string> in_docs = DocumentedNames();
  for (const std::string& n : in_code) {
    EXPECT_TRUE(in_docs.count(n) != 0)
        << "'" << n << "' is in RunStats::Snapshot() but missing from the "
           "docs/metrics.md tables";
  }
  for (const std::string& n : in_docs) {
    EXPECT_TRUE(in_code.count(n) != 0)
        << "'" << n << "' is documented in docs/metrics.md but missing "
           "from RunStats::Snapshot()";
  }
}

}  // namespace
}  // namespace xtc
