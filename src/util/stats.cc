#include "util/stats.h"

namespace xtc {

void PrintStatsText(std::FILE* out, const StatsSnapshot& snapshot) {
  for (const StatValue& v : snapshot) {
    std::fprintf(out, "%-40s %llu\n", v.name.c_str(),
                 static_cast<unsigned long long>(v.value));
  }
}

void PrintStatsJson(std::FILE* out, const StatsSnapshot& snapshot) {
  std::fprintf(out, "{\n");
  for (size_t i = 0; i < snapshot.size(); ++i) {
    std::fprintf(out, "  \"%s\": %llu%s\n", snapshot[i].name.c_str(),
                 static_cast<unsigned long long>(snapshot[i].value),
                 i + 1 < snapshot.size() ? "," : "");
  }
  std::fprintf(out, "}\n");
}

}  // namespace xtc
