// Hot-path memory discipline (docs/PERFORMANCE.md): the per-request data
// plane must MOVE payloads end-to-end and recycle storage through the arena
// free lists, so a steady-state request stream makes no Bytes deep copies
// and no new Bytes heap allocations after warmup; and the control plane
// around it (events, decode, session tables, scheduler, worker) reuses its
// storage, so a steady-state request makes no heap allocation at all. The
// tests diff the process-wide Bytes instrumentation counters, and a global
// operator new counter local to this binary, around a measured window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "devmgr/device_manager.h"
#include "remote/remote_runtime.h"
#include "shm/namespace.h"
#include "shm/segment.h"
#include "sim/bitstream.h"
#include "sim/board.h"
#include "ocl/runtime.h"

// ---- allocation counting hook (binary-local) --------------------------------
//
// Replaces the global allocation functions for this binary only, like
// bench/e2e/host_probe.cpp. Counts every allocation on every thread: the
// client, the connection pump, the dispatcher and the device worker.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace bf {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct Rig {
  explicit Rig(bool with_shm, bool functional = true) {
    sim::BoardConfig bc;
    bc.id = "fpga-b";
    bc.node = "B";
    bc.host = sim::make_node_b();
    bc.memory_bytes = 64 * kMiB;
    bc.functional = functional;
    board = std::make_unique<sim::Board>(bc);
    devmgr::DeviceManagerConfig mc;
    mc.id = "devmgr-b";
    mc.allow_shared_memory = with_shm;
    mc.gate_stall_grace = std::chrono::milliseconds(50);
    manager = std::make_unique<devmgr::DeviceManager>(
        mc, board.get(), with_shm ? &node_shm : nullptr);
    remote::ManagerAddress address;
    address.endpoint = &manager->endpoint();
    address.transport = net::local_control(bc.host);
    address.node_shm = with_shm ? &node_shm : nullptr;
    runtime = std::make_unique<remote::RemoteRuntime>(
        std::vector<remote::ManagerAddress>{address});
  }

  shm::Namespace node_shm;
  std::unique_ptr<sim::Board> board;
  std::unique_ptr<devmgr::DeviceManager> manager;
  std::unique_ptr<remote::RemoteRuntime> runtime;
};

// One request: gRPC-path write -> kernel -> read -> finish, the Fig. 4b
// request shape. `payload` is moved in and handed back refilled so the
// caller's loop cycles one buffer.
void run_request(ocl::CommandQueue& queue, ocl::Kernel& kernel,
                 const ocl::Buffer& in, const ocl::Buffer& out, Bytes payload,
                 Bytes& read_back, Bytes& payload_out) {
  ASSERT_TRUE(
      queue.enqueue_write(in, 0, std::move(payload), /*blocking=*/false).ok());
  ASSERT_TRUE(queue.enqueue_kernel(kernel, ocl::NdRange{}).ok());
  ASSERT_TRUE(queue
                  .enqueue_read(out, 0, MutableByteSpan{read_back},
                                /*blocking=*/false)
                  .ok());
  ASSERT_TRUE(queue.finish().ok());
  // Refill from the arena like a well-behaved client: the buffer moved into
  // enqueue_write was recycled after serialization, so this is a pool hit.
  payload_out = arena::acquire(read_back.size());
  payload_out.resize_for_overwrite(read_back.size());
}

// The copy-counter conformance test: an op's payload travels client ->
// WriteData frame -> dispatcher decode -> Operation::inline_data ->
// board write without a single Bytes deep copy, and after warmup the
// arena recycling loop serves every buffer on the path (frames, decoded
// payloads, read staging) without new Bytes heap allocations.
TEST(HotPathDiscipline, GrpcRequestLoopMovesPayloadAndReusesArena) {
  Rig rig(/*with_shm=*/false);
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  auto kernel = context.value()->create_kernel("vadd");
  ASSERT_TRUE(kernel.ok());
  constexpr std::size_t kPayload = 256 * 1024;
  auto in = context.value()->create_buffer(kPayload);
  auto out = context.value()->create_buffer(kPayload);
  ASSERT_TRUE(in.ok() && out.ok());
  kernel.value().set_arg(0, in.value());
  kernel.value().set_arg(1, in.value());
  kernel.value().set_arg(2, out.value());
  kernel.value().set_arg(3, std::int64_t{kPayload / 4});
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  Bytes payload(kPayload, 0xAB);
  Bytes read_back(kPayload);
  for (int i = 0; i < 16; ++i) {  // warm the arena free lists
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }

  const std::uint64_t copies_before = Bytes::deep_copy_count();
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  constexpr int kMeasured = 32;
  for (int i = 0; i < kMeasured; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }
  EXPECT_EQ(Bytes::deep_copy_count() - copies_before, 0u)
      << "a Bytes deep copy crept into the per-request path";
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u)
      << "steady-state requests must be served from the arena free lists";
}

// Same request stream over the shared-memory data path: the segment's
// spare cache plus the arena backstop must make the steady state
// allocation-free as well.
TEST(HotPathDiscipline, ShmRequestLoopIsAllocationFreeAfterWarmup) {
  Rig rig(/*with_shm=*/true);
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kVadd).ok());
  auto kernel = context.value()->create_kernel("vadd");
  ASSERT_TRUE(kernel.ok());
  constexpr std::size_t kPayload = 256 * 1024;
  auto in = context.value()->create_buffer(kPayload);
  auto out = context.value()->create_buffer(kPayload);
  ASSERT_TRUE(in.ok() && out.ok());
  kernel.value().set_arg(0, in.value());
  kernel.value().set_arg(1, in.value());
  kernel.value().set_arg(2, out.value());
  kernel.value().set_arg(3, std::int64_t{kPayload / 4});
  auto queue = context.value()->create_queue();
  ASSERT_TRUE(queue.ok());

  Bytes payload(kPayload, 0xCD);
  Bytes read_back(kPayload);
  for (int i = 0; i < 16; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }

  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 32; ++i) {
    Bytes next;
    run_request(*queue.value(), kernel.value(), in.value(), out.value(),
                std::move(payload), read_back, next);
    payload = std::move(next);
  }
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

// AlexNet's request shapes on a timing-only board (the bench/e2e setting):
// a write, a 14-argument conv launch whose wait list names the write,
// finish(), then a blocking read. The conv launch has PipeCNN's argument
// list at a small layer size.
struct ConvRequest {
  explicit ConvRequest(ocl::Context& context) {
    auto created = context.create_kernel("conv");
    ok = created.ok();
    if (!ok) return;
    kernel = created.value();
    auto in_buffer = context.create_buffer(input.size());
    auto weights = context.create_buffer(4 * 3 * 3 * 3 * sizeof(float));
    auto bias = context.create_buffer(4 * sizeof(float));
    auto out_buffer = context.create_buffer(output.size());
    auto created_queue = context.create_queue();
    ok = in_buffer.ok() && weights.ok() && bias.ok() && out_buffer.ok() &&
         created_queue.ok();
    if (!ok) return;
    in = in_buffer.value();
    out = out_buffer.value();
    queue = std::move(created_queue.value());
    kernel.set_arg(0, in);
    kernel.set_arg(1, weights.value());
    kernel.set_arg(2, bias.value());
    kernel.set_arg(3, out);
    const std::int64_t shape[] = {3, 8, 8, 4, 8, 8, 3, 1, 1, 1};
    for (std::size_t i = 0; i < std::size(shape); ++i) {
      kernel.set_arg(4 + i, shape[i]);
    }
  }

  // No gtest assertion inside: a passing one may still allocate.
  bool run() {
    auto write = queue->enqueue_write(in, 0, ByteSpan{input},
                                      /*blocking=*/false);
    if (!write.ok()) return false;
    const ocl::EventPtr waits[] = {write.value()};
    auto launch = queue->enqueue_kernel(kernel, ocl::NdRange{4, 8, 8}, waits);
    if (!launch.ok() || !queue->finish().ok()) return false;
    auto read = queue->enqueue_read(out, 0, MutableByteSpan{output},
                                    /*blocking=*/true);
    return read.ok();
  }

  bool ok = false;
  ocl::Kernel kernel;
  ocl::Buffer in;
  ocl::Buffer out;
  std::unique_ptr<ocl::CommandQueue> queue;
  Bytes input = Bytes(3 * 8 * 8 * sizeof(float), 0x11);
  Bytes output = Bytes(4 * 8 * 8 * sizeof(float));
};

// The control-plane gate: once warm, a request allocates nothing on any
// thread of either transport — no event, map node, decoded vector, queue
// node or launch args — and the Bytes counters stay flat as well.
//
// Two per-op logs still grow for the life of a session or board until
// they are bounded: the board's busy log and the session's completion
// table. Both are vectors that gain a fixed number of entries per request,
// so they allocate only when they double. The gate therefore asks that the
// quietest of a few consecutive windows allocates nothing, and that the
// windows together allocate no more than those doublings: growing from the
// warmup's entries to the end's, each log doubles at most
// ceil(log2(end / warmup)) times. An allocation every request, or every
// few dozen requests, exceeds that bound.
void expect_allocation_free_requests(bool with_shm) {
  Rig rig(with_shm, /*functional=*/false);
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kAlexNet).ok());
  ConvRequest request(*context.value());
  ASSERT_TRUE(request.ok);
  constexpr int kWarmupRequests = 16;
  for (int i = 0; i < kWarmupRequests; ++i) ASSERT_TRUE(request.run());

  const std::uint64_t bytes_allocs_before = Bytes::heap_alloc_count();
  const std::uint64_t copies_before = Bytes::deep_copy_count();
  constexpr int kWindows = 6;
  constexpr int kRequestsPerWindow = 32;
  std::vector<std::uint64_t> window_allocs;
  bool all_ok = true;
  for (int w = 0; w < kWindows; ++w) {
    const std::uint64_t before = allocations();
    for (int i = 0; i < kRequestsPerWindow; ++i) {
      all_ok = request.run() && all_ok;
    }
    window_allocs.push_back(allocations() - before);
  }
  EXPECT_TRUE(all_ok);
  std::string counts;
  for (std::uint64_t count : window_allocs) {
    counts += " " + std::to_string(count);
  }
  EXPECT_EQ(*std::min_element(window_allocs.begin(), window_allocs.end()), 0u)
      << "heap allocations per " << kRequestsPerWindow
      << "-request window:" << counts;
  constexpr int kGrowingLogs = 2;
  constexpr double kGrowth =
      static_cast<double>(kWarmupRequests + kWindows * kRequestsPerWindow) /
      kWarmupRequests;
  const auto doublings =
      static_cast<std::uint64_t>(std::ceil(std::log2(kGrowth)));
  EXPECT_LE(std::accumulate(window_allocs.begin(), window_allocs.end(),
                            std::uint64_t{0}),
            kGrowingLogs * doublings)
      << "heap allocations per " << kRequestsPerWindow
      << "-request window:" << counts;
  EXPECT_EQ(Bytes::heap_alloc_count() - bytes_allocs_before, 0u);
  EXPECT_EQ(Bytes::deep_copy_count() - copies_before, 0u);
}

TEST(HotPathDiscipline, GrpcControlPlaneIsAllocationFree) {
  expect_allocation_free_requests(/*with_shm=*/false);
}

TEST(HotPathDiscipline, ShmControlPlaneIsAllocationFree) {
  expect_allocation_free_requests(/*with_shm=*/true);
}

// An event the remote runtime did not create: a wait list naming it is
// rejected before anything is sent.
class ForeignEvent final : public ocl::Event {
 public:
  [[nodiscard]] ocl::EventStatus status() const override {
    return ocl::EventStatus::kComplete;
  }
  Status wait() override { return Status::Ok(); }
  [[nodiscard]] vt::Time completion_time() const override {
    return vt::Time::zero();
  }
};

// A rejected enqueue leaves nothing behind: no event is registered (it would
// stay in the context's table for the context's life), so the only
// allocation it makes is the message of the Status it returns.
TEST(HotPathDiscipline, RejectedEnqueuesAllocateOnlyTheirStatus) {
  Rig rig(/*with_shm=*/false, /*functional=*/false);
  ocl::Session session("tenant");
  auto context = rig.runtime->create_context("fpga-b", session);
  ASSERT_TRUE(context.ok());
  ASSERT_TRUE(context.value()->program(sim::BitstreamLibrary::kAlexNet).ok());
  ConvRequest request(*context.value());
  ASSERT_TRUE(request.ok);
  ASSERT_TRUE(request.run());
  const ocl::EventPtr foreign[] = {std::make_shared<ForeignEvent>()};
  ocl::CommandQueue& queue = *request.queue;
  auto probe = queue.enqueue_write(request.in, 0, ByteSpan{request.input},
                                   /*blocking=*/false, foreign);
  ASSERT_EQ(probe.status().code(), StatusCode::kInvalidArgument);
  const std::string message = probe.status().message();

  constexpr int kRejected = 256;
  std::vector<Result<ocl::EventPtr>> results;
  results.reserve(kRejected);
  const std::uint64_t before = allocations();
  for (int i = 0; i < kRejected; ++i) {
    switch (i % 3) {
      case 0:
        results.push_back(queue.enqueue_write(
            request.in, 0, ByteSpan{request.input}, /*blocking=*/false,
            foreign));
        break;
      case 1:
        results.push_back(queue.enqueue_read(
            request.out, 0, MutableByteSpan{request.output},
            /*blocking=*/false, foreign));
        break;
      default:
        results.push_back(queue.enqueue_kernel(
            request.kernel, ocl::NdRange{4, 8, 8}, foreign));
        break;
    }
  }
  const std::uint64_t rejected = allocations() - before;

  std::vector<Status> built;
  built.reserve(kRejected);
  const std::uint64_t built_before = allocations();
  for (int i = 0; i < kRejected; ++i) built.push_back(InvalidArgument(message));
  const std::uint64_t building = allocations() - built_before;

  for (const Result<ocl::EventPtr>& result : results) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(rejected, building);
  // The context still works: nothing leaked into its event table.
  EXPECT_TRUE(request.run());
}

// Segment-level regression: the stage(Bytes&&) -> fetch_take cycle and the
// allocate -> release read-slot loop both reuse storage (spare cache or
// arena) instead of allocating per iteration.
TEST(HotPathDiscipline, SegmentSteadyStateStageFetchTakeIsAllocationFree) {
  shm::Segment segment(sim::CopyModel(13.0 * 1024 * 1024 * 1024), 64 << 20);
  vt::Cursor cursor;
  Bytes buffer(512 * 1024, 0x5A);
  for (int i = 0; i < 8; ++i) {  // warmup
    auto slot = segment.stage(std::move(buffer), cursor);
    ASSERT_TRUE(slot.ok());
    auto taken = segment.fetch_take(slot.value(), cursor);
    ASSERT_TRUE(taken.ok());
    buffer = std::move(taken.value());
  }
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 64; ++i) {
    auto slot = segment.stage(std::move(buffer), cursor);
    ASSERT_TRUE(slot.ok());
    auto taken = segment.fetch_take(slot.value(), cursor);
    ASSERT_TRUE(taken.ok());
    buffer = std::move(taken.value());
  }
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

TEST(HotPathDiscipline, SegmentReadSlotLoopReusesSpares) {
  shm::Segment segment(sim::CopyModel(13.0 * 1024 * 1024 * 1024), 64 << 20);
  vt::Cursor cursor;
  Bytes out(256 * 1024);
  for (int i = 0; i < 8; ++i) {  // warm the spare cache
    auto slot = segment.allocate(out.size());
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  }
  const std::uint64_t allocs_before = Bytes::heap_alloc_count();
  for (int i = 0; i < 64; ++i) {
    auto slot = segment.allocate(out.size());
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  }
  EXPECT_EQ(Bytes::heap_alloc_count() - allocs_before, 0u);
}

// The arena counts only requests its pool can serve: inline-sized and
// oversized acquires and recycles move no counter, so the hit ratio reads
// the pool's real effectiveness.
TEST(HotPathDiscipline, ArenaCountsOnlyPooledSizes) {
  const arena::Stats before = arena::stats();
  {
    Bytes empty = arena::acquire(0);
    Bytes inline_sized = arena::acquire(16);
    arena::recycle(std::move(empty));
    arena::recycle(std::move(inline_sized));
  }
  const arena::Stats inline_only = arena::stats();
  EXPECT_EQ(inline_only.hits, before.hits);
  EXPECT_EQ(inline_only.misses, before.misses);
  EXPECT_EQ(inline_only.recycled, before.recycled);
  EXPECT_EQ(inline_only.dropped, before.dropped);

  // A size class no other test in this binary uses, drained first so the
  // first acquire below is a miss.
  constexpr std::size_t kSize = 4096;
  std::vector<Bytes> drained;
  for (std::size_t i = 0; i < arena::detail::kBuffersPerClass; ++i) {
    drained.push_back(arena::acquire(kSize));
  }
  const arena::Stats start = arena::stats();
  Bytes first = arena::acquire(kSize);
  arena::recycle(std::move(first));
  Bytes second = arena::acquire(kSize);
  const arena::Stats end = arena::stats();
  EXPECT_EQ(end.misses - start.misses, 1u);
  EXPECT_EQ(end.hits - start.hits, 1u);
  EXPECT_GE(second.capacity(), kSize);
}

}  // namespace
}  // namespace bf
