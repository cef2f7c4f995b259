#include "obs/memory.h"

#include <cstdio>
#include <cstring>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace fedsu::obs {

namespace {

#if defined(__linux__)
// Parses a "Vm...:  <kB> kB" line from /proc/self/status. Returns 0 when
// the key is missing (e.g. exotic kernels) — callers treat 0 as "unknown".
std::uint64_t read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    unsigned long long value = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) {
      kb = static_cast<std::uint64_t>(value);
    }
    break;
  }
  std::fclose(f);
  return kb;
}
#endif

}  // namespace

MemoryStats sample_memory() {
  MemoryStats stats;
#if defined(__linux__)
  stats.peak_rss_bytes = read_status_kb("VmHWM") * 1024;
  stats.current_rss_bytes = read_status_kb("VmRSS") * 1024;
#endif
#if defined(__linux__) || defined(__APPLE__)
  if (stats.peak_rss_bytes == 0) {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
      stats.peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss);
#else
      stats.peak_rss_bytes =
          static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
    }
  }
#endif
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
  const struct mallinfo2 mi = mallinfo2();
  stats.heap_live_bytes = static_cast<std::uint64_t>(mi.uordblks);
#endif
#endif
  return stats;
}

}  // namespace fedsu::obs
