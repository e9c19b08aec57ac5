// Kernel models: modeled execution time + functional semantics.
//
// Each accelerator kernel from the paper's evaluation (Spector Sobel,
// Spector MM, PipeCNN conv/pool/lrn/fc) is modeled twice:
//  * a calibrated latency model (DESIGN.md §3) used by every experiment, and
//  * a functional implementation (real arithmetic on board memory) used by
//    correctness tests and functional examples, so results are checkable
//    against CPU references.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "sim/memory.h"
#include "trace/span.h"
#include "vt/time.h"

namespace bf::sim {

// Functional kernels compute directly in borrowed board memory and spread
// row/channel partitions across WorkerPool::shared(). Partitioning never
// changes results: every output element is produced by exactly one task with
// a fixed operation order (see docs/PERFORMANCE.md). This scope swaps in a
// private pool of the given size so tests can pin byte-exactness across
// 1, 2, and N lanes. Not reentrant; do not construct concurrently with
// running kernels.
class ScopedKernelParallelism {
 public:
  explicit ScopedKernelParallelism(unsigned threads);
  ~ScopedKernelParallelism();

  ScopedKernelParallelism(const ScopedKernelParallelism&) = delete;
  ScopedKernelParallelism& operator=(const ScopedKernelParallelism&) = delete;

 private:
  std::unique_ptr<WorkerPool> pool_;
  WorkerPool* previous_;
};

// An OpenCL kernel argument: a device buffer or a scalar.
using KernelArg = std::variant<MemHandle, std::int64_t, double>;

// A client id interned by Board::owner(); 0 means unattributed.
using Owner = std::uint32_t;

struct KernelLaunch {
  std::string kernel;
  std::vector<KernelArg> args;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};
  // Request trace context of the enqueue that produced this launch (invalid
  // when untraced); the board records a "kernel:<name>" span under it.
  trace::SpanContext trace;
  Owner owner = 0;  // the occupancy's client in the board's busy ledger

  [[nodiscard]] std::uint64_t work_items() const {
    return global_size[0] * global_size[1] * global_size[2];
  }
};

// Helpers to read typed args with contract checks.
Result<MemHandle> arg_buffer(const KernelLaunch& launch, std::size_t index);
Result<std::int64_t> arg_scalar(const KernelLaunch& launch, std::size_t index);

// Fixed per-enqueue on-device launch overhead (pipeline fill, DMA descriptor
// setup) baked into every model's execution_time. Exposed so a coalesced
// batch pass (Board::run_kernel_batch) can pay it once instead of per launch.
[[nodiscard]] vt::Duration kernel_launch_overhead();

class KernelModel {
 public:
  virtual ~KernelModel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::size_t arity() const = 0;

  // Modeled on-device execution latency (excludes host<->board transfers,
  // which the PCIe link model charges separately).
  [[nodiscard]] virtual Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const = 0;

  // Functional execution against board memory.
  virtual Status execute(const KernelLaunch& launch,
                         DeviceMemory& memory) const = 0;

  // Validates arg count/types without executing.
  [[nodiscard]] Status validate(const KernelLaunch& launch) const;
};

// Registry of all kernel models known to the simulator, keyed by name.
class KernelRegistry {
 public:
  static const KernelRegistry& standard();

  [[nodiscard]] const KernelModel* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  KernelRegistry();
  std::unordered_map<std::string, std::unique_ptr<KernelModel>> models_;
};

// --- Individual models (exposed for targeted unit tests) -------------------

// Spector Sobel operator: ~1 px/cycle at ~167 MHz => ~6 ns per pixel.
// args: (in u32 pixels, out u32 pixels, width, height)
class SobelKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "sobel"; }
  [[nodiscard]] std::size_t arity() const override { return 4; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// Spector MM: C = A x B, square N x N float32, ~19.2 GFLOP-pair/s effective.
// args: (A, B, C, N)
class MatMulKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "mm"; }
  [[nodiscard]] std::size_t arity() const override { return 4; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// PipeCNN convolution (also used for FC with spatial dims 1).
// args: (in, weights, bias, out,
//        in_c, in_h, in_w, out_c, out_h, out_w, ksize, stride, pad, relu)
class ConvKernel : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "conv"; }
  [[nodiscard]] std::size_t arity() const override { return 14; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// FC alias so PipeCNN host code reads naturally; same math as 1x1 conv.
class FcKernel final : public ConvKernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fc"; }
};

// PipeCNN max-pooling.
// args: (in, out, c, in_h, in_w, out_h, out_w, ksize, stride)
class PoolKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "pool"; }
  [[nodiscard]] std::size_t arity() const override { return 9; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// PipeCNN local response normalization. args: (in, out, c, h, w)
class LrnKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "lrn"; }
  [[nodiscard]] std::size_t arity() const override { return 5; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// Spector FIR filter: 1-D convolution of a float signal with T taps.
// args: (in, coeffs, out, n, taps)
class FirKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "fir"; }
  [[nodiscard]] std::size_t arity() const override { return 5; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// Spector histogram: 256-bin histogram of u32 pixels (low byte).
// args: (in, hist, n)
class HistogramKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "histogram"; }
  [[nodiscard]] std::size_t arity() const override { return 3; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

// Demo vector add: c = a + b (float32). args: (a, b, c, n)
class VaddKernel final : public KernelModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "vadd"; }
  [[nodiscard]] std::size_t arity() const override { return 4; }
  [[nodiscard]] Result<vt::Duration> execution_time(
      const KernelLaunch& launch) const override;
  Status execute(const KernelLaunch& launch,
                 DeviceMemory& memory) const override;
};

}  // namespace bf::sim
