// Host-side measurement probes for the end-to-end benchmark: wall clock,
// process and per-thread CPU time, heap allocations, and /proc readings.
// Everything here observes the system from outside; nothing calls into the
// libraries under test.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace bf::e2e {

// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::int64_t wall_ns();

// Process CPU time (user + system, every thread, exited ones too), seconds.
[[nodiscard]] double process_cpu_s();

// Peak resident set size of the process (ru_maxrss), MiB.
[[nodiscard]] double peak_rss_mib();

// Global operator new calls and bytes requested since process start
// (counted by this binary's allocation hook).
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCounts alloc_counts();

[[nodiscard]] pid_t current_tid();

// Restricts the calling thread (and every thread it spawns later) to the
// first `count` CPUs it may run on. Returns how many CPUs it now uses.
int limit_cpus(int count);

// Thread ids currently alive in this process (/proc/self/task), sorted.
[[nodiscard]] std::vector<pid_t> list_tids();

// Ids in `after` that are not in `before` (both sorted).
[[nodiscard]] std::vector<pid_t> new_tids(const std::vector<pid_t>& before,
                                          const std::vector<pid_t>& after);

// CPU time a thread has run so far (/proc/self/task/<tid>/schedstat), ns;
// 0 once the thread has exited. Does not allocate.
[[nodiscard]] std::uint64_t thread_cpu_ns(pid_t tid);

// Sum of thread_cpu_ns over a thread group.
[[nodiscard]] std::uint64_t group_cpu_ns(const std::vector<pid_t>& tids);

// Aggregate CPU jiffies from /proc/stat: steal and the total of all fields,
// so a run can report how much of the machine a hypervisor took away.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuJiffies cpu_jiffies();

}  // namespace bf::e2e
