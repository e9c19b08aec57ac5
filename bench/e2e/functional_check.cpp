#include "functional_check.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "native/native_runtime.h"
#include "sim/board.h"
#include "testbed/testbed.h"
#include "workloads/alexnet.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"

namespace bf::e2e {
namespace {

constexpr std::size_t kSobelWidth = 64;
constexpr std::size_t kSobelHeight = 48;
constexpr std::size_t kMatrixN = 32;

workloads::AlexNetOptions small_alexnet() {
  workloads::AlexNetOptions options;
  options.channel_scale = 32;
  options.functional = true;
  return options;
}

// A factory that remembers the last workload it made. The gateway's instance
// is built after the deploy-time probe, so the slot ends on the live one.
template <typename W, typename... Args>
workloads::WorkloadFactory recording(W** slot, Args... args) {
  return [slot, args...]() -> workloads::WorkloadPtr {
    auto workload = std::make_unique<W>(args...);
    *slot = workload.get();
    return workload;
  };
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Runs one request of `workload` on a standalone native runtime over a
// functional board (the paper's baseline path).
Status run_native(workloads::Workload& workload) {
  sim::BoardConfig config;
  config.id = "fpga-reference";
  config.node = "B";
  config.host = sim::make_node_b();
  config.functional = true;
  sim::Board board(config);
  native::NativeRuntime runtime({&board});
  ocl::Session session("reference");
  auto context = runtime.create_context(config.id, session);
  if (!context.ok()) return context.status();
  Status status = workload.setup(*context.value());
  if (status.ok()) status = workload.handle_request(*context.value());
  workload.teardown();
  return status;
}

}  // namespace

Status functional_check(bool use_shared_memory) {
  testbed::TestbedOptions options;
  options.functional_boards = true;
  options.use_shared_memory = use_shared_memory;
  testbed::Testbed bed(options);

  workloads::SobelWorkload* sobel = nullptr;
  workloads::MatMulWorkload* mm = nullptr;
  workloads::AlexNetWorkload* alexnet = nullptr;
  const std::pair<const char*, workloads::WorkloadFactory> functions[] = {
      {"check-sobel", recording(&sobel, kSobelWidth, kSobelHeight)},
      {"check-mm", recording(&mm, kMatrixN)},
      {"check-alexnet", recording(&alexnet, small_alexnet())}};
  for (const auto& [name, factory] : functions) {
    if (Status s = bed.deploy_blastfunction(name, factory); !s.ok()) return s;
    auto invoked = bed.gateway().invoke(name);
    if (!invoked.ok()) return invoked.status();
  }

  if (sobel->last_output() !=
      workloads::sobel_reference(sobel->input_frame(), kSobelWidth,
                                 kSobelHeight)) {
    return Internal("sobel output differs from sobel_reference");
  }

  workloads::MatMulWorkload mm_native(kMatrixN);
  if (Status s = run_native(mm_native); !s.ok()) return s;
  if (!same_bytes(mm->last_output(), mm_native.last_output())) {
    return Internal("mm output differs from the native runtime's");
  }
  const auto expected = workloads::matmul_reference(mm->lhs(), mm->rhs(),
                                                    kMatrixN);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::fabs(mm->last_output()[i] - expected[i]) > 1e-4F) {
      return Internal("mm output differs from matmul_reference at " +
                      std::to_string(i));
    }
  }

  workloads::AlexNetWorkload alexnet_native(small_alexnet());
  if (Status s = run_native(alexnet_native); !s.ok()) return s;
  if (!same_bytes(alexnet->last_logits(), alexnet_native.last_logits())) {
    return Internal("alexnet logits differ from the native runtime's");
  }
  return Status::Ok();
}

}  // namespace bf::e2e
