#include "traced_ocl.h"

#include <cstdio>
#include <memory>

#include "host_probe.h"

namespace bf::e2e {
namespace {

thread_local SpanLog* t_log = nullptr;

SpanLog* active_log() {
  return t_log != nullptr && t_log->recording ? t_log : nullptr;
}

// ---- decorators ---------------------------------------------------------------

class TracedEvent final : public ocl::Event {
 public:
  explicit TracedEvent(ocl::EventPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] ocl::EventStatus status() const override {
    return inner_->status();
  }
  Status wait() override {
    ScopedSpan span("ocl.event_wait");
    return inner_->wait();
  }
  [[nodiscard]] vt::Time completion_time() const override {
    return inner_->completion_time();
  }
  [[nodiscard]] const ocl::EventPtr& inner() const { return inner_; }

 private:
  ocl::EventPtr inner_;
};

// Events are wrapped only while recording, so untraced requests of a traced
// run pay no extra allocation; wait lists may therefore mix both kinds.
Result<ocl::EventPtr> wrap(Result<ocl::EventPtr> event) {
  if (!event.ok() || event.value() == nullptr || active_log() == nullptr) {
    return event;
  }
  return ocl::EventPtr(
      std::make_shared<TracedEvent>(std::move(event.value())));
}

// The runtime under test only accepts its own events in a wait list.
std::vector<ocl::EventPtr> unwrap(ocl::EventWaitList wait_list) {
  std::vector<ocl::EventPtr> out;
  out.reserve(wait_list.size());
  for (const ocl::EventPtr& event : wait_list) {
    const auto* traced = dynamic_cast<const TracedEvent*>(event.get());
    out.push_back(traced != nullptr ? traced->inner() : event);
  }
  return out;
}

class TracedQueue final : public ocl::CommandQueue {
 public:
  explicit TracedQueue(std::unique_ptr<ocl::CommandQueue> inner)
      : inner_(std::move(inner)) {}

  Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                      std::uint64_t offset, ByteSpan data,
                                      bool blocking,
                                      ocl::EventWaitList wait_list) override {
    ScopedSpan span("ocl.enqueue_write");
    const auto deps = unwrap(wait_list);
    return wrap(inner_->enqueue_write(buffer, offset, data, blocking, deps));
  }

  Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                      std::uint64_t offset, Bytes&& data,
                                      bool blocking,
                                      ocl::EventWaitList wait_list) override {
    ScopedSpan span("ocl.enqueue_write");
    const auto deps = unwrap(wait_list);
    return wrap(inner_->enqueue_write(buffer, offset, std::move(data),
                                      blocking, deps));
  }

  Result<ocl::EventPtr> enqueue_read(const ocl::Buffer& buffer,
                                     std::uint64_t offset,
                                     MutableByteSpan out, bool blocking,
                                     ocl::EventWaitList wait_list) override {
    ScopedSpan span("ocl.enqueue_read");
    const auto deps = unwrap(wait_list);
    return wrap(inner_->enqueue_read(buffer, offset, out, blocking, deps));
  }

  Result<ocl::EventPtr> enqueue_kernel(const ocl::Kernel& kernel,
                                       ocl::NdRange range,
                                       ocl::EventWaitList wait_list) override {
    ScopedSpan span("ocl.enqueue_kernel");
    const auto deps = unwrap(wait_list);
    return wrap(inner_->enqueue_kernel(kernel, range, deps));
  }

  Status flush() override {
    ScopedSpan span("ocl.flush");
    return inner_->flush();
  }

  Status finish() override {
    ScopedSpan span("ocl.finish");
    return inner_->finish();
  }

 private:
  std::unique_ptr<ocl::CommandQueue> inner_;
};

class TracedContext final : public ocl::Context {
 public:
  explicit TracedContext(ocl::Context& inner) : inner_(inner) {}

  [[nodiscard]] ocl::Context& inner() { return inner_; }

  [[nodiscard]] const ocl::DeviceInfo& device() const override {
    return inner_.device();
  }
  [[nodiscard]] ocl::Session& session() override { return inner_.session(); }

  Status program(const std::string& bitstream_id) override {
    ScopedSpan span("ocl.program");
    return inner_.program(bitstream_id);
  }
  Result<ocl::Buffer> create_buffer(std::uint64_t size) override {
    ScopedSpan span("ocl.create_buffer");
    return inner_.create_buffer(size);
  }
  Status release_buffer(const ocl::Buffer& buffer) override {
    ScopedSpan span("ocl.release_buffer");
    return inner_.release_buffer(buffer);
  }
  Result<ocl::Kernel> create_kernel(const std::string& name) override {
    ScopedSpan span("ocl.create_kernel");
    return inner_.create_kernel(name);
  }
  Result<std::unique_ptr<ocl::CommandQueue>> create_queue() override {
    ScopedSpan span("ocl.create_queue");
    auto queue = inner_.create_queue();
    if (!queue.ok()) return queue.status();
    return std::unique_ptr<ocl::CommandQueue>(
        std::make_unique<TracedQueue>(std::move(queue.value())));
  }

 private:
  ocl::Context& inner_;
};

// The workload the instance owns: forwards to the real one, handing it the
// decorating context created at set-up (persistent mode reuses it).
class TracedWorkload final : public workloads::Workload {
 public:
  explicit TracedWorkload(workloads::WorkloadPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string bitstream() const override {
    return inner_->bitstream();
  }
  [[nodiscard]] std::string accelerator() const override {
    return inner_->accelerator();
  }

  Status setup(ocl::Context& context) override {
    ScopedSpan span("workload.setup");
    context_ = std::make_unique<TracedContext>(context);
    return inner_->setup(*context_);
  }

  Status handle_request(ocl::Context& context) override {
    ScopedSpan span("workload.handle_request");
    if (context_ == nullptr || &context_->inner() != &context) {
      return FailedPrecondition("traced workload used outside its context");
    }
    return inner_->handle_request(*context_);
  }

  void teardown() override {
    inner_->teardown();
    context_.reset();
  }

  [[nodiscard]] std::uint64_t request_bytes_in() const override {
    return inner_->request_bytes_in();
  }
  [[nodiscard]] std::uint64_t request_bytes_out() const override {
    return inner_->request_bytes_out();
  }

 private:
  workloads::WorkloadPtr inner_;
  std::unique_ptr<TracedContext> context_;
};

// Chrome-trace category: the span name's layer prefix.
std::string category(const char* name) {
  std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

SpanLog::SpanLog(int tid, std::size_t reserve) : tid_(tid) {
  spans_.reserve(reserve);
}

void SpanLog::open() {
  ++depth_;
  if (depth_ <= kMaxDepth) child_ns_[depth_] = 0;
}

void SpanLog::close(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  const std::int64_t duration = end_ns - start_ns;
  Span span{name, start_ns, end_ns, duration, depth_ - 1};
  if (depth_ <= kMaxDepth) {
    span.self_ns = duration - child_ns_[depth_];
    child_ns_[depth_ - 1] += duration;
  }
  --depth_;
  spans_.push_back(span);
}

void bind_thread_log(SpanLog* log) { t_log = log; }

ScopedSpan::ScopedSpan(const char* name) : name_(name), log_(active_log()) {
  if (log_ != nullptr) {
    log_->open();
    start_ns_ = wall_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->close(name_, start_ns_, wall_ns());
}

workloads::WorkloadFactory traced_factory(workloads::WorkloadFactory inner) {
  return [inner = std::move(inner)]() -> workloads::WorkloadPtr {
    return std::make_unique<TracedWorkload>(inner());
  };
}

Status write_chrome_trace(const std::string& path,
                          const std::vector<const SpanLog*>& logs,
                          std::int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Unavailable("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"self_us\":%.3f}}",
                   first ? "" : ",", span.name, category(span.name).c_str(),
                   log->tid(),
                   static_cast<double>(span.start_ns - origin_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<double>(span.self_ns) / 1e3);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) return Unavailable("cannot write " + path);
  return Status::Ok();
}

}  // namespace bf::e2e
