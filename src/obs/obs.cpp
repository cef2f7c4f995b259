#include "obs/obs.h"

#include <atomic>
#include <stdexcept>

namespace fedsu::obs {

namespace {
std::atomic<int> g_level{static_cast<int>(Level::kOff)};
}  // namespace

Level level() {
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

void set_level(Level level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

Level parse_level(const std::string& text) {
  if (text == "off" || text == "0") return Level::kOff;
  if (text == "metrics" || text == "1") return Level::kMetrics;
  if (text == "trace" || text == "2") return Level::kTrace;
  throw std::invalid_argument(
      "obs level must be off | metrics | trace (or 0 | 1 | 2), got '" + text +
      "'");
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kMetrics: return "metrics";
    case Level::kTrace: return "trace";
  }
  return "off";
}

}  // namespace fedsu::obs
