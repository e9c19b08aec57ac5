#include "host_probe.h"

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>

// ---- allocation counting hook (binary-local) --------------------------------
//
// Replaces the global allocation functions for this binary only, like
// bench/hotpath_cpu. Relaxed atomics: only totals are needed.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  count_alloc(size);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bf::e2e {
namespace {

// Reads a small /proc file into `buf` without touching the heap. Returns the
// byte count, 0 on failure.
std::size_t read_small_file(const char* path, char* buf, std::size_t cap) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf, cap - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  return static_cast<std::size_t>(n);
}

// Parses an unsigned decimal at *p, advancing past it and any spaces.
std::uint64_t parse_u64(const char*& p) {
  while (*p == ' ') ++p;
  std::uint64_t value = 0;
  while (*p >= '0' && *p <= '9') value = value * 10 + std::uint64_t(*p++ - '0');
  return value;
}

}  // namespace

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

AllocCounts alloc_counts() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

pid_t current_tid() { return ::gettid(); }

int limit_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return CPU_COUNT(&allowed);
  }
  return taken;
}

std::vector<pid_t> list_tids() {
  std::vector<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> new_tids(const std::vector<pid_t>& before,
                            const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

std::uint64_t thread_cpu_ns(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat",
                static_cast<int>(tid));
  char buf[128];
  if (read_small_file(path, buf, sizeof(buf)) == 0) return 0;
  const char* p = buf;
  return parse_u64(p);  // first field: time spent on the CPU
}

std::uint64_t group_cpu_ns(const std::vector<pid_t>& tids) {
  std::uint64_t total = 0;
  for (pid_t tid : tids) total += thread_cpu_ns(tid);
  return total;
}

CpuJiffies cpu_jiffies() {
  char buf[4096];
  CpuJiffies out;
  if (read_small_file("/proc/stat", buf, sizeof(buf)) == 0) return out;
  const char* p = buf;
  if (p[0] != 'c' || p[1] != 'p' || p[2] != 'u' || p[3] != ' ') return out;
  p += 3;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice).
  for (int field = 0; field < 8; ++field) {
    const std::uint64_t value = parse_u64(p);
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

}  // namespace bf::e2e
