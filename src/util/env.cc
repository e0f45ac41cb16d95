#include "util/env.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace dtdctcp {

double env_double(const char* name, double fallback, double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return std::clamp(v, lo, hi);
}

std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return std::clamp<std::int64_t>(v, lo, hi);
}

double bench_scale() {
  return env_double("DTDCTCP_BENCH_SCALE", 1.0, 0.01, 100.0);
}

std::string export_path(const std::string& file) {
  const char* dir = std::getenv("DTDCTCP_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/" + file;
}

}  // namespace dtdctcp
