// Host-wall span recording for the traced benchmark run.
//
// The benchmark wraps the workload factory it hands to the testbed, so the
// real workload talks to decorating ocl::Context / CommandQueue / Event
// objects that time every call into the OpenCL layer. The benchmark's own
// driver adds the enclosing "request" span around FunctionInstance::invoke.
// Spans are kept in per-thread logs in memory and written out at exit.
//
// Nesting on one thread: request > workload.handle_request > ocl.*, and
// workload.setup > ocl.* during set-up. A span's self time is its duration
// minus the time its direct children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workloads/workload.h"

namespace bf::e2e {

struct Span {
  const char* name = "";  // static string, e.g. "ocl.enqueue_write"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t depth = 0;  // 0 = root on its thread
};

// One thread's spans, appended as they close (children before parents).
class SpanLog {
 public:
  explicit SpanLog(int tid, std::size_t reserve = 0);

  // Spans are recorded only while true; set between requests by the owner.
  bool recording = false;

  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void open();
  void close(const char* name, std::int64_t start_ns, std::int64_t end_ns);

 private:
  static constexpr std::uint32_t kMaxDepth = 16;
  int tid_;
  std::uint32_t depth_ = 0;
  std::int64_t child_ns_[kMaxDepth + 1] = {};
  std::vector<Span> spans_;
};

// Routes spans recorded on the calling thread to `log` (nullptr: none).
void bind_thread_log(SpanLog* log);

// Records one span on the calling thread's log when it is recording.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  SpanLog* log_;
  std::int64_t start_ns_ = 0;
};

// Wraps `inner` so each workload it makes sees decorating OpenCL objects.
workloads::WorkloadFactory traced_factory(workloads::WorkloadFactory inner);

// Writes every span of `logs` as Chrome-trace JSON ("X" events, one track
// per log). Timestamps are relative to `origin_ns`.
Status write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns);

}  // namespace bf::e2e
