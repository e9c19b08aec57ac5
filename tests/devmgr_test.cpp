// bf::devmgr: session isolation, task semantics, reconfiguration behaviour
// and metrics, exercised through the Remote OpenCL Library.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "devmgr/device_manager.h"
#include "fault/injector.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "sim/bitstream.h"
#include "sim/board.h"
#include "sim/kernels.h"
#include "trace/chrome_trace.h"
#include "workloads/matmul.h"

namespace bf::devmgr {
namespace {

struct Rig {
  // Most tests drive two sessions from one thread on purpose; the short
  // default grace keeps the idle-producer fallback fast.
  explicit Rig(SchedulerConfig scheduler = {},
               std::chrono::milliseconds stall_grace =
                   std::chrono::milliseconds(50)) {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 64 * kMiB;
    board = std::make_unique<sim::Board>(bc);
    DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.gate_stall_grace = stall_grace;
    mc.scheduler = std::move(scheduler);
    manager = std::make_unique<DeviceManager>(mc, board.get(), &node_shm);
    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = net::local_control(bc.host);
    address.node_shm = &node_shm;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  std::unique_ptr<ocl::Context> make_context(ocl::Session& session) {
    auto context = runtime->create_context("fpga-b", session);
    BF_CHECK(context.ok());
    return std::move(context.value());
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

TEST(DeviceManager, SessionsGetIsolatedResourcePools) {
  Rig rig;
  ocl::Session s1("tenant-1");
  ocl::Session s2("tenant-2");
  auto c1 = rig.make_context(s1);
  auto c2 = rig.make_context(s2);
  ASSERT_TRUE(c1->program(sim::BitstreamLibrary::kVadd).ok());
  ASSERT_TRUE(c2->program(sim::BitstreamLibrary::kVadd).ok());
  auto b1 = c1->create_buffer(1024);
  auto b2 = c2->create_buffer(1024);
  ASSERT_TRUE(b1.ok() && b2.ok());
  // Per-session id spaces start at 1 independently: isolation means tenant 2
  // gets its own id 1 and never sees tenant 1's objects.
  EXPECT_EQ(b1.value().id, 1u);
  EXPECT_EQ(b2.value().id, 1u);
  EXPECT_EQ(rig.manager->session_count(), 2u);
  // Releasing tenant-2's buffer does not disturb tenant-1's.
  ASSERT_TRUE(c2->release_buffer(b2.value()).ok());
  auto queue1 = c1->create_queue();
  ASSERT_TRUE(queue1.ok());
  Bytes data(1024, 0x11);
  EXPECT_TRUE(
      queue1.value()->enqueue_write(b1.value(), 0, ByteSpan{data}, true).ok());
}

TEST(DeviceManager, UnknownBufferInTaskYieldsEventError) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  ocl::Buffer bogus{999, 64};
  Bytes data(64);
  auto event = queue.value()->enqueue_write(bogus, 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());  // enqueue itself succeeds (async)
  ASSERT_TRUE(queue.value()->flush().ok());
  Status status = event.value()->wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(DeviceManager, OutOfMemoryReportedOnCreateBuffer) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  auto too_big = context->create_buffer(1ULL << 40);
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(DeviceManager, UnknownKernelRejectedAtCreate) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  EXPECT_EQ(context->create_kernel("sobel").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(context->create_kernel("vadd").ok());
}

TEST(DeviceManager, UnknownBitstreamRejected) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  EXPECT_EQ(context->program("not-a-bitstream").code(),
            StatusCode::kNotFound);
}

TEST(DeviceManager, OpsWithoutFlushDoNotExecute) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  auto event =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());
  // Give the manager a real-time moment: nothing should execute.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rig.manager->tasks_executed(), 0u);
  EXPECT_NE(event.value()->status(), ocl::EventStatus::kComplete);
  // The flush (implied by wait) releases the task.
  ASSERT_TRUE(event.value()->wait().ok());
  EXPECT_EQ(rig.manager->tasks_executed(), 1u);
}

TEST(DeviceManager, FinishNotifiesAfterAllOps) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(4 * kMiB);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(4 * kMiB);
  auto e1 =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  auto e2 =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(e1.ok() && e2.ok());
  ASSERT_TRUE(queue.value()->finish().ok());
  EXPECT_EQ(e1.value()->status(), ocl::EventStatus::kComplete);
  EXPECT_EQ(e2.value()->status(), ocl::EventStatus::kComplete);
  EXPECT_GE(session.now(), e2.value()->completion_time());
  EXPECT_GE(e2.value()->completion_time(), e1.value()->completion_time());
}

TEST(DeviceManager, ReconfigurationWipesAllTenantsBuffers) {
  Rig rig;
  ocl::Session s1("tenant-1");
  ocl::Session s2("tenant-2");
  auto c1 = rig.make_context(s1);
  auto c2 = rig.make_context(s2);
  ASSERT_TRUE(c1->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = c1->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  // Tenant 2 loads a different image: DDR is wiped for everyone.
  ASSERT_TRUE(c2->program(sim::BitstreamLibrary::kSobel).ok());
  auto queue = c1->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  auto event =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(event.ok());
  ASSERT_TRUE(queue.value()->flush().ok());
  EXPECT_FALSE(event.value()->wait().ok());
  EXPECT_EQ(rig.board->reconfiguration_count(), 2u);
}

TEST(DeviceManager, MultipleQueuesProduceIndependentTasks) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto q1 = context->create_queue();
  auto q2 = context->create_queue();
  ASSERT_TRUE(q1.ok() && q2.ok());
  Bytes data(1024);
  (void)q1.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  (void)q2.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(q1.value()->finish().ok());
  ASSERT_TRUE(q2.value()->finish().ok());
  // Two queues, two flushes => two tasks (counted before the finish
  // completion is delivered).
  EXPECT_EQ(rig.manager->tasks_executed(), 2u);
}

TEST(DeviceManager, ExportsPrometheusMetrics) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024);
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  const std::string text = rig.manager->metrics().expose();
  EXPECT_NE(text.find("bf_devmgr_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("bf_devmgr_ops_total"), std::string::npos);
  EXPECT_NE(text.find("device=\"fpga-b\""), std::string::npos);
  EXPECT_NE(text.find("bf_devmgr_task_span_ms_bucket"), std::string::npos);
}

TEST(DeviceManager, UtilizationAndClientAttribution) {
  Rig rig;
  ocl::Session session("tenant-x");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(8 * kMiB);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(8 * kMiB);
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  const vt::Time horizon = session.now() + vt::Duration::seconds(1);
  const double utilization =
      rig.manager->utilization(vt::Time::zero(), horizon);
  EXPECT_GT(utilization, 0.0);
  EXPECT_LT(utilization, 1.0);
  const vt::Duration mine =
      rig.board->client_busy_between("tenant-x", vt::Time::zero(), horizon);
  EXPECT_GT(mine.ns(), 0);
  EXPECT_EQ(
      rig.board->client_busy_between("ghost", vt::Time::zero(), horizon).ns(),
      0);
  // All board busy time belongs to the only tenant.
  EXPECT_EQ(mine.ns(),
            rig.board->busy_between(vt::Time::zero(), horizon).ns());
}

TEST(DeviceManager, SegmentNameIsDeterministic) {
  Rig rig;
  EXPECT_EQ(rig.manager->segment_name(3), "devmgr-b:sess:3");
}

TEST(DeviceManager, TaskSpanHistogramCountsAbortedTasks) {
  Rig rig;
  ocl::Session session("t");
  auto context = rig.make_context(session);
  ASSERT_TRUE(context->program(sim::BitstreamLibrary::kVadd).ok());
  auto buffer = context->create_buffer(1024);
  ASSERT_TRUE(buffer.ok());
  auto queue = context->create_queue();
  ASSERT_TRUE(queue.ok());
  Bytes data(1024, 0x5A);
  // One clean task, then one whose last op is aborted mid-task.
  ASSERT_TRUE(
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, true).ok());
  fault::ScopedInjection inject(/*seed=*/3);
  inject.site(fault::site::kDevmgrTaskAbort, {.after_hits = 1, .budget = 1});
  auto first =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  auto last =
      queue.value()->enqueue_write(buffer.value(), 0, ByteSpan{data}, false);
  ASSERT_TRUE(first.ok() && last.ok());
  ASSERT_TRUE(queue.value()->flush().ok());
  EXPECT_TRUE(first.value()->wait().ok());
  EXPECT_EQ(last.value()->wait().code(), StatusCode::kAborted);

  const metrics::Labels labels{{"device", "fpga-b"}, {"manager", "devmgr-b"}};
  auto& registry = rig.manager->metrics();
  EXPECT_EQ(rig.manager->tasks_executed(), 2u);
  EXPECT_EQ(registry.counter("bf_devmgr_tasks_total", labels)->value(), 2.0);
  EXPECT_EQ(registry.histogram("bf_devmgr_task_span_ms", labels)->count(), 2u);
}

// Several tenants issuing concurrent same-kernel MM requests to one
// functional board under kBatching. Each request is write A, write B,
// kernel, read, sealed by one flush: a batchable task.
class BatchedMatMul {
 public:
  static constexpr std::size_t kN = 32;
  static constexpr int kClients = 4;
  static constexpr int kRounds = 3;

  struct ClientResult {
    // Per round: the four ops' statuses, in enqueue order.
    std::vector<std::array<Status, 4>> statuses;
    bool outputs_match = true;
  };

  explicit BatchedMatMul(Rig& rig) : rig_(rig) {}

  // Returns one result per client. Kernel spans land in `builder`.
  std::vector<ClientResult> run(trace::TraceBuilder& builder) {
    std::vector<std::unique_ptr<ocl::Session>> sessions;
    std::vector<std::unique_ptr<ocl::Context>> contexts;
    std::vector<Tenant> tenants(kClients);
    // Set-up is sequential: only the first tenant queues a reconfiguration,
    // and no idle tenant holds the gate while another one sets up.
    vt::Time start = vt::Time::zero();
    for (int c = 0; c < kClients; ++c) {
      sessions.push_back(
          std::make_unique<ocl::Session>("tenant-" + std::to_string(c)));
      contexts.push_back(rig_.make_context(*sessions.back()));
      EXPECT_TRUE(tenants[c].setup(*contexts.back(), c));
      start = vt::max(start, sessions.back()->now());
    }
    std::vector<ClientResult> results(kClients);
    trace::install(&builder);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          ocl::Session& session = *sessions[c];
          // Equal ready stamps for every tenant's first task: the gate holds
          // the head until all of them are queued, so they coalesce.
          (void)session.clock().advance_to(start);
          session.set_trace_context(trace::SpanContext{
              static_cast<std::uint64_t>(c) + 1, 1});
          for (int round = 0; round < kRounds; ++round) {
            results[c].statuses.push_back(tenants[c].request());
            results[c].outputs_match &= tenants[c].output_ok();
          }
          // Close the connection so an idle tenant never pins the gate.
          tenants[c].queue.reset();
          contexts[c].reset();
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    trace::install(nullptr);
    return results;
  }

  // True iff two tenants' kernels ran back to back in one board pass: the
  // follower starts where the leader ends and skips the launch overhead.
  static bool saw_coalesced_pass(const std::vector<trace::Span>& spans) {
    std::vector<const trace::Span*> kernels;
    for (const trace::Span& span : spans) {
      if (span.name == "kernel:mm") kernels.push_back(&span);
    }
    for (const trace::Span* lead : kernels) {
      for (const trace::Span* follower : kernels) {
        if (follower->trace_id != lead->trace_id &&
            follower->start == lead->end &&
            (follower->end - follower->start) + sim::kernel_launch_overhead() ==
                lead->end - lead->start) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct Tenant {
    std::vector<float> a, b, c;
    ocl::Buffer buf_a, buf_b, buf_c;
    ocl::Kernel kernel;
    std::unique_ptr<ocl::CommandQueue> queue;

    bool setup(ocl::Context& context, int client) {
      a.resize(kN * kN);
      b.resize(kN * kN);
      c.assign(kN * kN, 0.0F);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>((i + client) % 7) * 0.5F;
        b[i] = static_cast<float>((i * 3 + client) % 5) - 2.0F;
      }
      if (!context.program(sim::BitstreamLibrary::kMatMul).ok()) return false;
      const std::uint64_t bytes = kN * kN * sizeof(float);
      auto ba = context.create_buffer(bytes);
      auto bb = context.create_buffer(bytes);
      auto bc = context.create_buffer(bytes);
      auto k = context.create_kernel("mm");
      auto q = context.create_queue();
      if (!ba.ok() || !bb.ok() || !bc.ok() || !k.ok() || !q.ok()) return false;
      buf_a = ba.value();
      buf_b = bb.value();
      buf_c = bc.value();
      kernel = k.value();
      queue = std::move(q.value());
      kernel.set_arg(0, buf_a);
      kernel.set_arg(1, buf_b);
      kernel.set_arg(2, buf_c);
      kernel.set_arg(3, static_cast<std::int64_t>(kN));
      return true;
    }

    std::array<Status, 4> request() {
      std::fill(c.begin(), c.end(), 0.0F);
      std::array<Result<ocl::EventPtr>, 4> events = {
          queue->enqueue_write(buf_a, 0,
                               as_bytes(a.data(), a.size() * sizeof(float)),
                               false),
          queue->enqueue_write(buf_b, 0,
                               as_bytes(b.data(), b.size() * sizeof(float)),
                               false),
          queue->enqueue_kernel(kernel, {kN, kN, 1}),
          queue->enqueue_read(
              buf_c, 0, as_writable_bytes(c.data(), c.size() * sizeof(float)),
              false)};
      EXPECT_TRUE(queue->flush().ok());
      std::array<Status, 4> statuses;
      for (std::size_t i = 0; i < events.size(); ++i) {
        statuses[i] =
            events[i].ok() ? events[i].value()->wait() : events[i].status();
      }
      last_ok = std::all_of(statuses.begin(), statuses.end(),
                            [](const Status& s) { return s.ok(); });
      return statuses;
    }

    bool output_ok() const {
      return !last_ok || c == workloads::matmul_reference(a, b, kN);
    }

    bool last_ok = false;
  };

  Rig& rig_;
};

SchedulerConfig batching_config() {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kBatching;
  config.max_batch = BatchedMatMul::kClients;
  return config;
}

TEST(DeviceManagerBatching, CoalescedPassesMatchReference) {
  // Default stall grace: tenants run on their own threads, and a fallback
  // pop would only cost a coalescing opportunity.
  Rig rig(batching_config(), DeviceManagerConfig{}.gate_stall_grace);
  trace::TraceBuilder builder(/*seed=*/5);
  BatchedMatMul harness(rig);
  const auto results = harness.run(builder);
  std::uint64_t completions = 0;
  for (const auto& result : results) {
    EXPECT_TRUE(result.outputs_match);
    for (const auto& statuses : result.statuses) {
      for (const Status& status : statuses) {
        EXPECT_TRUE(status.ok()) << status.to_string();
        ++completions;
      }
    }
  }
  EXPECT_EQ(completions, static_cast<std::uint64_t>(BatchedMatMul::kClients) *
                             BatchedMatMul::kRounds * 4);
  EXPECT_EQ(rig.manager->ops_executed(), completions);
  EXPECT_EQ(rig.manager->tasks_executed(),
            static_cast<std::uint64_t>(BatchedMatMul::kClients) *
                BatchedMatMul::kRounds);
  EXPECT_TRUE(BatchedMatMul::saw_coalesced_pass(builder.spans()));
}

TEST(DeviceManagerBatching, AbortHitsOnlyOneTaskOfABatch) {
  Rig rig(batching_config(), DeviceManagerConfig{}.gate_stall_grace);
  trace::TraceBuilder builder(/*seed=*/6);
  fault::ScopedInjection inject(/*seed=*/6);
  // The second op the worker runs aborts: the first pass's lead task fails
  // from its second op on, after its first write went through.
  inject.site(fault::site::kDevmgrTaskAbort, {.after_hits = 1, .budget = 1});
  BatchedMatMul harness(rig);
  const auto results = harness.run(builder);
  int hit_tasks = 0;
  std::uint64_t completions = 0;
  for (const auto& result : results) {
    EXPECT_TRUE(result.outputs_match);
    for (const auto& statuses : result.statuses) {
      completions += statuses.size();
      if (statuses[1].ok()) {
        for (const Status& status : statuses) {
          EXPECT_TRUE(status.ok()) << status.to_string();
        }
        continue;
      }
      ++hit_tasks;
      EXPECT_TRUE(statuses[0].ok()) << statuses[0].to_string();
      for (std::size_t i = 1; i < statuses.size(); ++i) {
        EXPECT_EQ(statuses[i].code(), StatusCode::kAborted)
            << statuses[i].to_string();
      }
    }
  }
  EXPECT_EQ(hit_tasks, 1);
  EXPECT_EQ(rig.manager->ops_executed(), completions);
  EXPECT_TRUE(BatchedMatMul::saw_coalesced_pass(builder.spans()));
}

}  // namespace
}  // namespace bf::devmgr
