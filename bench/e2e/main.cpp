// End-to-end host-cost benchmark of the BlastFunction stack (README.md).
//
// Drives testbed::Testbed -> faas::Gateway -> remote -> net/shm -> devmgr
// -> sim closed-loop with default TestbedOptions and timing-only boards, and
// measures host cost from outside: wall time around every invoke(), process
// and per-thread CPU, heap allocations, and the layers' public counters.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--record FILE] [--sha SHA]
//   bench_e2e --list
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (half of the measured windows run with span recording on). The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A failed request, a functional mismatch, a broken
// conservation law or (for seed 0) a modeled digest different from the
// committed one makes the run exit 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "functional_check.h"
#include "host_probe.h"
#include "testbed/testbed.h"
#include "traced_ocl.h"
#include "workloads/alexnet.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"

#ifndef BF_E2E_BUILD
#define BF_E2E_BUILD "unknown"
#endif

namespace bf::e2e {
namespace {

// CPUs the whole run is confined to (see run()).
constexpr int kCpus = 2;

// ---- workloads ------------------------------------------------------------------

enum class Kind { kSobel, kMatMul, kAlexNet };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  bool shm;            // TestbedOptions::use_shared_memory
  std::size_t width;   // Sobel frame width, or MM matrix order
  std::size_t height;  // Sobel frame height
  std::vector<double> rates;  // rq/s per tenant (paper Tables I and IV)
  // Modeled time each tenant runs before measuring; long enough that one
  // set-up spans about a second of wall time, so a short burst of host
  // noise cannot slow every repetition.
  vt::Duration warmup;
  int setups;  // set-up repetitions; setup_s is their median
  // Modeled window after the warm-up that the digest covers; every tenant
  // runs past its end before stopping, so it is independent of wall time.
  vt::Duration digest_window;
  std::uint64_t digest_seed0;  // committed digest of --seed 0
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"grpc-sobel-1t", Kind::kSobel, false, 512, 512, {60},
       vt::Duration::seconds(30), 5, vt::Duration::seconds(100),
       0xecf4b31f543991edULL},
      {"shm-sobel-4t", Kind::kSobel, true, 1920, 1080, {60, 50, 35, 30},
       vt::Duration::seconds(4), 5, vt::Duration::seconds(30),
       0xec43acd11eb60384ULL},
      {"shm-mm-4t", Kind::kMatMul, true, 448, 0, {84, 70, 49, 42},
       vt::Duration::seconds(20), 5, vt::Duration::seconds(60),
       0xe66fa8fadea14ce4ULL},
      // Set-up is ~8.5 s, nearly all gate stall-breaker waits: three
      // repetitions already agree within a few percent.
      {"shm-alexnet-4t", Kind::kAlexNet, true, 0, 0, {9, 9, 6, 6},
       vt::Duration::seconds(5), 3, vt::Duration::seconds(200),
       0x12997ea762958fbdULL},
  };
  return specs;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSobel: return "sobel";
    case Kind::kMatMul: return "mm";
    case Kind::kAlexNet: return "alexnet";
  }
  return "?";
}

workloads::WorkloadFactory make_factory(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case Kind::kSobel:
      return [w = spec.width, h = spec.height]() -> workloads::WorkloadPtr {
        return std::make_unique<workloads::SobelWorkload>(w, h);
      };
    case Kind::kMatMul:
      return [n = spec.width]() -> workloads::WorkloadPtr {
        return std::make_unique<workloads::MatMulWorkload>(n);
      };
    case Kind::kAlexNet:
      return []() -> workloads::WorkloadPtr {
        return std::make_unique<workloads::AlexNetWorkload>();
      };
  }
  return nullptr;
}

// Each tenant's rate scaled by U[0.9, 1.1] drawn from the seed; seed 0 keeps
// the paper's rates exactly.
std::vector<double> seeded_rates(const WorkloadSpec& spec,
                                 std::uint64_t seed) {
  std::vector<double> rates = spec.rates;
  if (seed == 0) return rates;
  Rng rng(seed);
  for (double& rate : rates) rate *= rng.next_double(0.9, 1.1);
  return rates;
}

// ---- closed-loop drivers --------------------------------------------------------

// Shared between the main thread and the drivers of one set-up.
struct Control {
  std::atomic<bool> stop_after_warmup{false};  // set-up repetitions end there
  std::atomic<bool> stop{false};   // the measured wall time is over
  std::atomic<bool> trace_on{false};
  std::atomic<std::uint64_t> completed{0};
};

struct WallSample {
  std::int64_t start_ns = 0;
  std::int64_t latency_ns = 0;
};

// One tenant: a Hey-style connection driven by its own thread.
struct Driver {
  Driver(std::shared_ptr<faas::FunctionInstance> instance_, double rate_,
         int track, std::size_t reserve, bool traced)
      : instance(std::move(instance_)),
        rate(rate_),
        spans(track, traced ? 200000 : 0) {
    samples.reserve(reserve);
  }

  std::shared_ptr<faas::FunctionInstance> instance;
  double rate;
  pid_t tid = 0;
  std::atomic<bool> warmed{false};

  vt::Time measure_start;  // modeled end of the warm-up
  vt::Time digest_end;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<WallSample> samples;
  // Requests sent inside [measure_start, digest_end).
  std::uint64_t digest_sent = 0;
  std::uint64_t digest_ok = 0;
  std::vector<std::int64_t> digest_latency_ns;

  SpanLog spans;
};

// The closed-loop schedule of loadgen::drive: next = max(now, next +
// 1/rate), advance the clock to it, invoke. Owning the loop lets the
// benchmark time every invoke().
void drive(Driver& d, Control& control, const WorkloadSpec& spec) {
  d.tid = current_tid();
  bind_thread_log(&d.spans);
  const vt::Duration period = vt::Duration::from_seconds_f(1.0 / d.rate);
  // Every tenant runs this far past the digest window before it may stop,
  // so requests inside the window all meet the same contention.
  const vt::Duration margin = vt::Duration::seconds(2);
  vt::Time next = d.instance->now();
  d.measure_start = next + spec.warmup;
  d.digest_end = d.measure_start + spec.digest_window;
  d.digest_latency_ns.reserve(static_cast<std::size_t>(
      d.rate * spec.digest_window.sec() * 1.2 + 64));
  while (true) {
    if (next >= d.measure_start) {
      d.warmed.store(true, std::memory_order_release);
      if (control.stop_after_warmup.load(std::memory_order_acquire)) break;
      if (control.stop.load(std::memory_order_acquire) &&
          next >= d.digest_end + margin) {
        break;
      }
    }
    d.instance->advance_clock_to(next);
    d.spans.recording = control.trace_on.load(std::memory_order_relaxed);
    const std::int64_t start = wall_ns();
    Result<faas::InvokeResult> invoked = [&] {
      ScopedSpan span("request");
      return d.instance->invoke();
    }();
    const std::int64_t end = wall_ns();
    ++d.sent;
    const bool in_digest = next >= d.measure_start && next < d.digest_end;
    if (in_digest) ++d.digest_sent;
    if (invoked.ok()) {
      control.completed.fetch_add(1, std::memory_order_relaxed);
      d.samples.push_back({start, end - start});
      if (in_digest) {
        ++d.digest_ok;
        d.digest_latency_ns.push_back(invoked.value().latency.ns());
      }
    } else {
      ++d.failed;
      std::fprintf(stderr, "invoke failed: %s\n",
                   invoked.status().to_string().c_str());
    }
    next = vt::max(d.instance->now(), next + period);
  }
  d.spans.recording = false;
  bind_thread_log(nullptr);
  // Release the device so other tenants' later-stamped work can proceed.
  d.instance->shutdown();
}

// ---- one set-up of the stack ------------------------------------------------------

// One set-up, from Testbed construction until every tenant is past its
// warm-up. Wall times per phase, process CPU over the whole span.
struct SetupStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double construct_s = 0.0;   // Testbed construction
  double deploy_ms = 0.0;     // Registry + gateway deploy of every tenant
  double prewarm_s = 0.0;     // sequential cold start of every tenant
  double prewarm_idle_s = 0.0;  // prewarm wall time not covered by CPU
  double warmup_s = 0.0;      // warm-up requests
  double workload_setup_s = 0.0;  // workload.setup spans (traced runs)

  // The setup_s metric: the set-up's work plus the prewarm's waiting (e.g.
  // gate stall-breaker idling). The warm-up's wall time is left out: with
  // four tenants' hand-offs on a shared VM it swung 2.5x with neighbour
  // steal while its CPU time moved ~10 %.
  [[nodiscard]] double time_s() const { return cpu_s + prewarm_idle_s; }
};

class Rig {
 public:
  Rig(const WorkloadSpec& spec, const std::vector<double>& rates,
      bool final_setup, bool traced, SpanLog& main_log, int seconds)
      : spec_(spec) {
    control_.stop_after_warmup.store(!final_setup);
    control_.trace_on.store(traced);
    main_log.recording = traced;
    const std::int64_t begin = wall_ns();
    const double cpu_begin = process_cpu_s();
    const std::size_t spans_before = main_log.spans().size();

    testbed::TestbedOptions options;
    options.use_shared_memory = spec.shm;
    const auto tids_before = list_tids();
    {
      ScopedSpan span("setup.construct");
      bed_ = std::make_unique<testbed::Testbed>(options);
    }
    const auto tids_built = list_tids();
    worker_tids_ = new_tids(tids_before, tids_built);
    stats_.construct_s = static_cast<double>(wall_ns() - begin) / 1e9;

    workloads::WorkloadFactory factory = make_factory(spec);
    if (traced) factory = traced_factory(std::move(factory));
    for (std::size_t i = 0; i < rates.size(); ++i) names_.push_back(name(i));
    const std::int64_t deploy_begin = wall_ns();
    {
      ScopedSpan span("setup.deploy");
      for (const std::string& function : names_) {
        BF_CHECK(bed_->deploy_blastfunction(function, factory).ok());
      }
    }
    stats_.deploy_ms = static_cast<double>(wall_ns() - deploy_begin) / 1e6;

    const auto tids_deployed = list_tids();
    const std::int64_t prewarm_begin = wall_ns();
    const double prewarm_cpu_begin = process_cpu_s();
    {
      ScopedSpan span("setup.prewarm");
      for (const std::string& function : names_) {
        BF_CHECK(bed_->gateway().warm(function).ok());
      }
    }
    conn_tids_ = new_tids(tids_deployed, list_tids());
    cancelled_at_start_ = tasks_cancelled();
    const std::int64_t warmup_begin = wall_ns();
    stats_.prewarm_s = static_cast<double>(warmup_begin - prewarm_begin) / 1e9;
    stats_.prewarm_idle_s = std::max(
        0.0, stats_.prewarm_s - (process_cpu_s() - prewarm_cpu_begin));

    const std::size_t reserve =
        final_setup ? static_cast<std::size_t>(seconds) * 20000 + 100000 : 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      auto instance = bed_->gateway().instance(names_[i]);
      BF_CHECK(instance != nullptr);
      drivers_.push_back(std::make_unique<Driver>(
          std::move(instance), rates[i], static_cast<int>(i) + 1, reserve,
          traced));
    }
    {
      ScopedSpan span("setup.warmup");
      for (auto& driver : drivers_) {
        threads_.emplace_back(
            [this, d = driver.get()] { drive(*d, control_, spec_); });
      }
      for (auto& driver : drivers_) {
        while (!driver->warmed.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    const std::int64_t end = wall_ns();
    stats_.cpu_s = process_cpu_s() - cpu_begin;
    stats_.warmup_s = static_cast<double>(end - warmup_begin) / 1e9;
    stats_.wall_s = static_cast<double>(end - begin) / 1e9;
    for (std::size_t i = spans_before; i < main_log.spans().size(); ++i) {
      const Span& span = main_log.spans()[i];
      if (std::strcmp(span.name, "workload.setup") == 0) {
        stats_.workload_setup_s +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e9;
      }
    }
    main_log.recording = false;
    for (auto& driver : drivers_) driver_tids_.push_back(driver->tid);
  }

  ~Rig() {
    control_.stop_after_warmup.store(true);
    control_.stop.store(true);
    join();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void join() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  [[nodiscard]] std::string name(std::size_t i) const {
    return std::string(kind_name(spec_.kind)) + "-" + std::to_string(i + 1);
  }

  [[nodiscard]] std::uint64_t tasks_cancelled() {
    std::uint64_t total = 0;
    for (const char* node : testbed::Testbed::kNodeNames) {
      total += bed_->manager(node).tasks_cancelled();
    }
    return total;
  }

  [[nodiscard]] const SetupStats& stats() const { return stats_; }
  [[nodiscard]] Control& control() { return control_; }
  [[nodiscard]] testbed::Testbed& bed() { return *bed_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Driver>>& drivers() const {
    return drivers_;
  }
  [[nodiscard]] const std::vector<pid_t>& driver_tids() const {
    return driver_tids_;
  }
  [[nodiscard]] const std::vector<pid_t>& worker_tids() const {
    return worker_tids_;
  }
  [[nodiscard]] const std::vector<pid_t>& conn_tids() const {
    return conn_tids_;
  }
  [[nodiscard]] std::uint64_t cancelled_at_start() const {
    return cancelled_at_start_;
  }

 private:
  const WorkloadSpec& spec_;
  Control control_;
  SetupStats stats_;
  std::uint64_t cancelled_at_start_ = 0;
  std::vector<std::string> names_;
  std::vector<pid_t> worker_tids_;  // spawned by Testbed construction
  std::vector<pid_t> conn_tids_;    // spawned by prewarm
  std::vector<pid_t> driver_tids_;
  std::unique_ptr<testbed::Testbed> bed_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  std::vector<std::thread> threads_;  // joined before the members above go
};

// ---- measured phase ---------------------------------------------------------------

struct Snapshot {
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  CpuJiffies jiffies;
  std::uint64_t completed = 0;
  std::uint64_t driver_ns = 0;
  std::uint64_t worker_ns = 0;
  std::uint64_t conn_ns = 0;
  AllocCounts allocs;
  arena::Stats arena;
  std::uint64_t deep_copies = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
};

Snapshot snapshot(Rig& rig) {
  Snapshot s;
  s.wall_ns = wall_ns();
  s.cpu_s = process_cpu_s();
  s.jiffies = cpu_jiffies();
  s.completed = rig.control().completed.load(std::memory_order_relaxed);
  s.driver_ns = group_cpu_ns(rig.driver_tids());
  s.worker_ns = group_cpu_ns(rig.worker_tids());
  s.conn_ns = group_cpu_ns(rig.conn_tids());
  s.allocs = alloc_counts();
  s.arena = arena::stats();
  s.deep_copies = Bytes::deep_copy_count();
  for (const char* node : testbed::Testbed::kNodeNames) {
    s.tasks += rig.bed().manager(node).tasks_executed();
    s.ops += rig.bed().manager(node).ops_executed();
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Window {
  Snapshot begin;
  Snapshot end;
  bool traced = false;       // span recording was on
  double queue_depth = 0.0;  // mean sampled queue depth, summed over boards

  [[nodiscard]] double wall_s() const {
    return static_cast<double>(end.wall_ns - begin.wall_ns) / 1e9;
  }
  [[nodiscard]] double completed() const {
    return static_cast<double>(end.completed - begin.completed);
  }
  [[nodiscard]] double req_per_s() const { return ratio(completed(), wall_s()); }
  [[nodiscard]] double cpu_us_per_req() const {
    return 1e6 * ratio(end.cpu_s - begin.cpu_s, completed());
  }
  [[nodiscard]] double steal() const {
    return ratio(static_cast<double>(end.jiffies.steal - begin.jiffies.steal),
                 static_cast<double>(end.jiffies.total - begin.jiffies.total));
  }
  [[nodiscard]] bool contains(std::int64_t ns) const {
    return ns >= begin.wall_ns && ns < end.wall_ns;
  }
};

// Ten equal wall windows. A traced run records spans in the odd windows
// only; the even ones give its counters, thread CPU and wall latencies.
std::vector<Window> measure(Rig& rig, int seconds, bool traced) {
  constexpr int kWindows = 10;
  const std::int64_t window_ns =
      static_cast<std::int64_t>(seconds) * 1'000'000'000 / kWindows;
  std::vector<Window> windows(kWindows);
  Snapshot mark = snapshot(rig);
  const std::int64_t t0 = mark.wall_ns;
  for (int w = 0; w < kWindows; ++w) {
    Window& window = windows[w];
    window.begin = mark;
    window.traced = traced && w % 2 == 1;
    rig.control().trace_on.store(window.traced);
    const std::int64_t end = t0 + (w + 1) * window_ns;
    double depth_sum = 0.0;
    int samples = 0;
    for (std::int64_t now = wall_ns(); now < end; now = wall_ns()) {
      for (const char* node : testbed::Testbed::kNodeNames) {
        auto health = rig.bed().manager(node).health();
        if (health.ok()) depth_sum += double(health.value().queue_depth);
      }
      ++samples;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(10'000'000, end - now)));
    }
    window.queue_depth = ratio(depth_sum, samples);
    mark = snapshot(rig);
    window.end = mark;
    std::fprintf(stderr,
                 "window %d: %.0f req/s, %.1f cpu_us/req, steal %.3f%s\n", w,
                 window.req_per_s(), window.cpu_us_per_req(), window.steal(),
                 window.traced ? ", traced" : "");
  }
  rig.control().trace_on.store(false);
  return windows;
}

// Totals over a set of windows.
struct Totals {
  double cpu_s = 0.0;
  double completed = 0.0;
  double driver_s = 0.0;
  double worker_s = 0.0;
  double conn_s = 0.0;
  double allocs = 0.0;
  double alloc_bytes = 0.0;
  double arena_hits = 0.0;
  double arena_misses = 0.0;
  double deep_copies = 0.0;
  double tasks = 0.0;
  double ops = 0.0;
  double steal_jiffies = 0.0;
  double all_jiffies = 0.0;
  double queue_depth = 0.0;  // summed over windows
  double windows = 0.0;

  void add(const Window& w) {
    const Snapshot& a = w.begin;
    const Snapshot& b = w.end;
    cpu_s += b.cpu_s - a.cpu_s;
    completed += w.completed();
    driver_s += static_cast<double>(b.driver_ns - a.driver_ns) / 1e9;
    worker_s += static_cast<double>(b.worker_ns - a.worker_ns) / 1e9;
    conn_s += static_cast<double>(b.conn_ns - a.conn_ns) / 1e9;
    allocs += static_cast<double>(b.allocs.count - a.allocs.count);
    alloc_bytes += static_cast<double>(b.allocs.bytes - a.allocs.bytes);
    arena_hits += static_cast<double>(b.arena.hits - a.arena.hits);
    arena_misses += static_cast<double>(b.arena.misses - a.arena.misses);
    deep_copies += static_cast<double>(b.deep_copies - a.deep_copies);
    tasks += static_cast<double>(b.tasks - a.tasks);
    ops += static_cast<double>(b.ops - a.ops);
    steal_jiffies += static_cast<double>(b.jiffies.steal - a.jiffies.steal);
    all_jiffies += static_cast<double>(b.jiffies.total - a.jiffies.total);
    queue_depth += w.queue_depth;
    windows += 1.0;
  }

  // Per completed request, scaled by `scale` (e.g. 1e6 for seconds -> us).
  [[nodiscard]] double per_req(double value, double scale = 1.0) const {
    return scale * ratio(value, completed);
  }
};

// ---- statistics and checks ---------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
template <typename T>
T percentile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

// FNV-1a over the modeled results of the digest window.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Modeled digest of the final set-up: per tenant, the sent / ok / failed
// counts of the digest window and the sum and p99 of modeled latency (ns),
// then the aggregate board utilization over the window all tenants share.
std::uint64_t modeled_digest(Rig& rig) {
  Digest digest;
  vt::Time from = vt::Time::zero();
  vt::Time to = vt::Time::infinite();
  for (const auto& driver : rig.drivers()) {
    from = vt::max(from, driver->measure_start);
    to = std::min(to, driver->digest_end);
    std::int64_t latency_sum = 0;
    for (std::int64_t ns : driver->digest_latency_ns) latency_sum += ns;
    digest.add(driver->digest_sent);
    digest.add(driver->digest_ok);
    digest.add(driver->digest_sent - driver->digest_ok);
    digest.add(static_cast<std::uint64_t>(latency_sum));
    digest.add(static_cast<std::uint64_t>(
        percentile(driver->digest_latency_ns, 0.99)));
  }
  const double utilization = rig.bed().aggregate_utilization_pct(from, to);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &utilization, sizeof(bits));
  digest.add(bits);
  return digest.value();
}

// Cross-layer conservation: every request a driver sent reached its
// FunctionInstance exactly once, and no Device Manager cancelled a task.
bool conserved(Rig& rig) {
  bool ok = true;
  for (const auto& driver : rig.drivers()) {
    const std::uint64_t seen = driver->instance->requests_served() +
                               driver->instance->errors();
    if (seen != driver->sent) {
      std::fprintf(stderr,
                   "conservation: %s sent %llu but the instance saw %llu\n",
                   driver->instance->function().c_str(),
                   static_cast<unsigned long long>(driver->sent),
                   static_cast<unsigned long long>(seen));
      ok = false;
    }
  }
  if (const std::uint64_t cancelled =
          rig.tasks_cancelled() - rig.cancelled_at_start();
      cancelled != 0) {
    std::fprintf(stderr, "conservation: %llu tasks cancelled\n",
                 static_cast<unsigned long long>(cancelled));
    ok = false;
  }
  return ok;
}

// ---- metrics ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Wall latency (us) of the invokes started inside the given windows.
std::vector<double> wall_latency_us(const Rig& rig,
                                    const std::vector<const Window*>& windows) {
  std::vector<double> out;
  for (const auto& driver : rig.drivers()) {
    for (const WallSample& sample : driver->samples) {
      for (const Window* window : windows) {
        if (window->contains(sample.start_ns)) {
          out.push_back(static_cast<double>(sample.latency_ns) / 1e3);
          break;
        }
      }
    }
  }
  return out;
}

std::vector<const Window*> untraced(const std::vector<Window>& windows) {
  std::vector<const Window*> out;
  for (const Window& w : windows) {
    if (!w.traced) out.push_back(&w);
  }
  return out;
}

template <typename Range, typename F>
std::vector<double> each(const Range& items, F f) {
  std::vector<double> out;
  for (const auto& item : items) out.push_back(f(item));
  return out;
}

double window_req_per_s(const Window* w) { return w->req_per_s(); }
double window_cpu_us_per_req(const Window* w) { return w->cpu_us_per_req(); }

std::vector<Metric> end_to_end_metrics(const std::vector<SetupStats>& setups,
                                       const std::vector<Window>& windows) {
  const std::vector<const Window*> all = untraced(windows);
  Totals totals;
  for (const Window* w : all) totals.add(*w);
  return {
      {"setup_s", median(each(setups, [](auto& s) { return s.time_s(); })),
       "s"},
      {"cpu_us_per_req", median(each(all, window_cpu_us_per_req)), "us"},
      {"allocs_per_req", totals.per_req(totals.allocs), "count"},
      {"alloc_kib_per_req", totals.per_req(totals.alloc_bytes, 1.0 / 1024),
       "KiB"},
  };
}

// Spans of the traced requests started inside the measured phase, with the
// request count. Spans close children-first, so a request's descendants
// are the spans logged between the previous root and it.
std::vector<const Span*> traced_request_spans(const Rig& rig,
                                              std::int64_t begin,
                                              std::int64_t end,
                                              double& requests) {
  std::vector<const Span*> out;
  requests = 0.0;
  for (const auto& driver : rig.drivers()) {
    const auto& log = driver->spans.spans();
    std::size_t first = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].depth != 0) continue;
      if (log[i].start_ns >= begin && log[i].start_ns < end) {
        requests += 1.0;
        for (std::size_t j = first; j <= i; ++j) out.push_back(&log[j]);
      }
      first = i + 1;
    }
  }
  return out;
}

// Per-layer table of the traced requests on stderr: count, median duration
// and self time, and each span name's share of all self time.
void print_span_table(const std::vector<const Span*>& spans) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  double total_self = 0.0;
  for (const Span* span : spans) {
    auto& [durations, selves] = by_name[span->name];
    durations.push_back(static_cast<double>(span->end_ns - span->start_ns) /
                        1e3);
    selves.push_back(static_cast<double>(span->self_ns) / 1e3);
    total_self += selves.back();
  }
  std::fprintf(stderr, "%-26s %9s %12s %12s %8s\n", "span", "count",
               "p50_us", "self_p50_us", "self_%");
  for (const auto& [name, values] : by_name) {
    double self_sum = 0.0;
    for (double v : values.second) self_sum += v;
    std::fprintf(stderr, "%-26s %9zu %12.2f %12.2f %7.2f%%\n", name.c_str(),
                 values.first.size(), median(values.first),
                 median(values.second), 100.0 * ratio(self_sum, total_self));
  }
}

std::vector<Metric> per_layer_metrics(const std::vector<SetupStats>& setups,
                                      const std::vector<Window>& windows,
                                      const Rig& rig) {
  const std::vector<const Window*> counted = untraced(windows);
  std::vector<const Window*> traced;
  for (const Window& w : windows) {
    if (w.traced) traced.push_back(&w);
  }
  Totals t;
  for (const Window* w : counted) t.add(*w);
  const std::vector<double> latency = wall_latency_us(rig, counted);
  const double req_per_s = median(each(counted, window_req_per_s));
  const double traced_req_per_s = median(each(traced, window_req_per_s));

  double requests = 0.0;
  const std::vector<const Span*> spans = traced_request_spans(
      rig, windows.front().begin.wall_ns, windows.back().end.wall_ns,
      requests);
  print_span_table(spans);
  std::map<std::string, std::vector<double>> us;
  std::vector<double> gateway_self_us;
  double ocl_calls = 0.0;
  for (const Span* s : spans) {
    us[s->name].push_back(static_cast<double>(s->end_ns - s->start_ns) / 1e3);
    if (s->depth == 0) {
      gateway_self_us.push_back(static_cast<double>(s->self_ns) / 1e3);
    }
    if (std::strncmp(s->name, "ocl.", 4) == 0) ocl_calls += 1.0;
  }
  std::vector<double> sync = us["ocl.finish"];
  sync.insert(sync.end(), us["ocl.event_wait"].begin(),
              us["ocl.event_wait"].end());
  const double attributed = t.driver_s + t.worker_s + t.conn_s;

  return {
      {"req_per_s", req_per_s, "1/s"},
      {"lat_wall_p50_us", percentile(latency, 0.50), "us"},
      {"lat_wall_p99_us", percentile(latency, 0.99), "us"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"setup_wall_s",
       median(each(setups, [](auto& s) { return s.wall_s; })), "s"},
      {"host.steal_frac", ratio(t.steal_jiffies, t.all_jiffies), "ratio"},
      {"faas.gateway_us_p50", median(gateway_self_us), "us"},
      {"faas.driver_cpu_us_per_req", t.per_req(t.driver_s, 1e6), "us"},
      {"remote.write_us_p50", median(us["ocl.enqueue_write"]), "us"},
      {"remote.read_us_p50", median(us["ocl.enqueue_read"]), "us"},
      {"remote.kernel_us_p50", median(us["ocl.enqueue_kernel"]), "us"},
      {"remote.sync_us_p50", median(sync), "us"},
      {"remote.calls_per_req", ratio(ocl_calls, requests), "count"},
      {"remote.workload_setup_s",
       median(each(setups, [](auto& s) { return s.workload_setup_s; })),
       "s"},
      {"devmgr.tasks_per_req", t.per_req(t.tasks), "count"},
      {"devmgr.ops_per_req", t.per_req(t.ops), "count"},
      {"devmgr.queue_depth_mean", ratio(t.queue_depth, t.windows), "count"},
      {"devmgr.worker_cpu_us_per_req", t.per_req(t.worker_s, 1e6), "us"},
      {"net.conn_threads_cpu_us_per_req", t.per_req(t.conn_s, 1e6), "us"},
      {"common.arena_hit_ratio",
       ratio(t.arena_hits, t.arena_hits + t.arena_misses), "ratio"},
      {"common.arena_misses_per_req", t.per_req(t.arena_misses), "count"},
      {"common.bytes_deep_copies_per_req", t.per_req(t.deep_copies),
       "count"},
      {"vt.setup_idle_s",
       median(each(setups, [](auto& s) { return s.prewarm_idle_s; })), "s"},
      {"registry.deploy_ms",
       median(each(setups, [](auto& s) { return s.deploy_ms; })), "ms"},
      {"cpu.unattributed_frac", 1.0 - ratio(attributed, t.cpu_s), "ratio"},
      {"trace.overhead_frac", 1.0 - ratio(traced_req_per_s, req_per_s),
       "ratio"},
  };
}

// ---- command line and output ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string record;
  std::string sha = "unknown";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--record FILE] "
               "[--sha SHA]\n       bench_e2e --list\nworkloads:",
               message);
  for (const WorkloadSpec& spec : workload_specs()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const WorkloadSpec& spec : workload_specs()) {
      std::printf("%s\n", spec.name);
    }
    std::exit(0);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--record") {
      options.record = value;
    } else if (flag == "--sha") {
      options.sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds < 1) usage("--seconds must be >= 1");
  return options;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int run(const Options& options) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : workload_specs()) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const std::vector<double> rates = seeded_rates(*spec, options.seed);
  const std::int64_t origin = wall_ns();
  // Every thread of the run shares two CPUs. On a VM whose neighbours take
  // CPU away, asking for all vCPUs at once turns into steal that stalls the
  // stack's thread hand-offs and halves throughput from one minute to the
  // next; two CPUs are nearly always granted. The 15 threads of a 4-tenant
  // stack still contend for them.
  const int cpus = limit_cpus(kCpus);

  // Outputs first: nothing is timed until the stack computes correctly.
  if (Status s = functional_check(spec->shm); !s.ok()) {
    std::fprintf(stderr, "functional check failed: %s\n",
                 s.to_string().c_str());
    return 1;
  }

  SpanLog main_log(0, options.trace ? 4096 : 0);
  bind_thread_log(&main_log);

  // Set-up is repeated; its median is setup_s. The last one is measured.
  std::vector<SetupStats> setups;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i + 1 < spec->setups; ++i) {
    Rig rig(*spec, rates, /*final_setup=*/false, options.trace, main_log,
            options.seconds);
    rig.join();
    for (const auto& driver : rig.drivers()) {
      attempted += driver->sent;
      failed += driver->failed;
    }
    setups.push_back(rig.stats());
  }
  Rig rig(*spec, rates, /*final_setup=*/true, options.trace, main_log,
          options.seconds);
  setups.push_back(rig.stats());
  bind_thread_log(nullptr);
  for (const SetupStats& st : setups) {
    std::fprintf(stderr,
                 "set-up: %.3f s = cpu %.3f + prewarm idle %.3f; wall %.3f = "
                 "construct %.3f + deploy %.3f + prewarm %.3f + warm-up %.3f\n",
                 st.time_s(), st.cpu_s, st.prewarm_idle_s, st.wall_s,
                 st.construct_s, st.deploy_ms / 1e3, st.prewarm_s,
                 st.warmup_s);
  }

  const std::vector<Window> windows = measure(rig, options.seconds,
                                              options.trace);
  rig.control().stop.store(true, std::memory_order_release);
  rig.join();

  for (const auto& driver : rig.drivers()) {
    attempted += driver->sent;
    failed += driver->failed;
  }
  const std::uint64_t digest = modeled_digest(rig);
  bool correct = conserved(rig) && failed == 0;
  if (options.seed == 0 && digest != spec->digest_seed0) {
    std::fprintf(stderr, "modeled digest %016llx != committed %016llx\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(spec->digest_seed0));
    correct = false;
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = end_to_end_metrics(setups, windows);
  } else {
    metrics = per_layer_metrics(setups, windows, rig);
    if (!options.trace_out.empty()) {
      std::vector<const SpanLog*> logs = {&main_log};
      for (const auto& driver : rig.drivers()) logs.push_back(&driver->spans);
      if (Status s = write_chrome_trace(options.trace_out, logs, origin);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "chrome trace written to %s\n",
                   options.trace_out.c_str());
    }
  }

  Totals phase;
  for (const Window& w : windows) phase.add(w);
  const double steal = ratio(phase.steal_jiffies, phase.all_jiffies);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf("# %s seed=%llu trace=%d requests=%.0f steal=%.4f digest=%s "
              "rates=",
              spec->name, static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, phase.completed, steal, digest_hex);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%.3f", i == 0 ? "" : ",", rates[i]);
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", spec->name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::string metrics_json = json_metrics(metrics);

  if (!options.record.empty()) {
    if (std::FILE* out = std::fopen(options.record.c_str(), "a")) {
      std::fprintf(out,
                   "{\"sha\": \"%s\", \"build\": \"%s\", \"nproc\": %u, "
                   "\"cpus\": %d, "
                   "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                   "\"seconds\": %d, \"steal_frac\": %.6f, \"digest\": "
                   "\"%s\", \"correct\": %s, \"attempted\": %llu, "
                   "\"failed\": %llu, \"metrics\": %s}\n",
                   options.sha.c_str(), BF_E2E_BUILD,
                   std::thread::hardware_concurrency(), cpus, spec->name,
                   static_cast<unsigned long long>(options.seed),
                   options.trace ? 1 : 0, options.seconds, steal, digest_hex,
                   correct ? "true" : "false",
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(failed),
                   metrics_json.c_str());
      std::fclose(out);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bf::e2e

int main(int argc, char** argv) {
  try {
    return bf::e2e::run(bf::e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
