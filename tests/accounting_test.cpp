// Accounting invariants: per-client busy attribution in the board ledger
// conserves total board busy time in every Device Manager mode; utilization
// definitions agree between DeviceManager, Board and Testbed; metrics
// counters match executed work.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "loadgen/loadgen.h"
#include "testbed/testbed.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"

namespace bf {
namespace {

// One Device Manager mode: the attribution paths differ per mode (one op at a
// time, coalesced kernel passes, per-region kernel timelines).
struct LedgerMode {
  const char* name;
  devmgr::SchedulerPolicy policy;
  unsigned pr_regions;
};

class AccountingLedger : public ::testing::TestWithParam<LedgerMode> {};

TEST_P(AccountingLedger, PerClientBusySumsToBoardBusy) {
  testbed::TestbedOptions options;
  options.policy.pack_tenants = true;  // tenants share boards
  options.scheduler.policy = GetParam().policy;
  options.scheduler.max_batch = 4;
  options.pr_regions = GetParam().pr_regions;
  testbed::Testbed packed(options);
  auto sobel = [] {
    return std::make_unique<workloads::SobelWorkload>(640, 480);
  };
  // A second accelerator, so a two-region board runs kernels concurrently.
  auto mm = [] { return std::make_unique<workloads::MatMulWorkload>(64); };
  const std::vector<std::string> functions = {"fn-1", "fn-2", "fn-3",
                                              "fn-mm"};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(packed.deploy_blastfunction(functions[i], sobel).ok());
  }
  ASSERT_TRUE(packed.deploy_blastfunction("fn-mm", mm).ok());
  std::vector<loadgen::DriveSpec> specs;
  for (const std::string& function : functions) {
    loadgen::DriveSpec spec;
    spec.function = function;
    spec.target_rps = 15;
    spec.warmup = vt::Duration::seconds(3);
    spec.duration = vt::Duration::seconds(4);
    specs.push_back(spec);
  }
  (void)loadgen::drive_all(packed.gateway(), specs);

  const vt::Time from = vt::Time::zero();
  const vt::Time to = vt::Time::seconds(60);
  double board_busy_sec = 0.0;
  std::set<std::string> clients;
  for (const std::string& node : packed.node_names()) {
    const sim::Board& board = packed.board(node);
    std::set<std::string> on_board;
    for (const auto& entry : board.busy_snapshot(from, to)) {
      on_board.insert(entry.client_id);
    }
    vt::Duration client_sum = vt::Duration::nanos(0);
    for (const std::string& client : on_board) {
      client_sum += board.client_busy_between(client, from, to);
    }
    // Every busy interval on the board belongs to exactly one client, and
    // the Device Manager leaves none unattributed.
    EXPECT_EQ(client_sum.ns(), board.busy_between(from, to).ns()) << node;
    EXPECT_EQ(on_board.count(""), 0u) << node;
    board_busy_sec += board.busy_between(from, to).sec();
    clients.insert(on_board.begin(), on_board.end());
  }
  // Every function's pod (or its migration replacement) used a board.
  for (const std::string& function : functions) {
    EXPECT_TRUE(std::any_of(clients.begin(), clients.end(),
                            [&](const std::string& client) {
                              return client.starts_with(function + "-");
                            }))
        << function;
  }
  EXPECT_GT(board_busy_sec, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AccountingLedger,
    ::testing::Values(
        LedgerMode{"Fifo", devmgr::SchedulerPolicy::kFifo, 1},
        LedgerMode{"Batching", devmgr::SchedulerPolicy::kBatching, 1},
        LedgerMode{"TwoRegions", devmgr::SchedulerPolicy::kFifo, 2}),
    [](const ::testing::TestParamInfo<LedgerMode>& info) {
      return std::string(info.param.name);
    });

TEST(Accounting, UtilizationDefinitionsAgree) {
  testbed::Testbed bed;
  auto factory = [] {
    return std::make_unique<workloads::SobelWorkload>(640, 480);
  };
  ASSERT_TRUE(bed.deploy_blastfunction("fn", factory).ok());
  loadgen::DriveSpec spec;
  spec.function = "fn";
  spec.target_rps = 30;
  spec.warmup = vt::Duration::seconds(3);
  spec.duration = vt::Duration::seconds(4);
  auto instance = bed.gateway().instance("fn");
  ASSERT_NE(instance, nullptr);
  auto result = loadgen::drive(*instance, spec);
  ASSERT_EQ(result.errors, 0u);

  auto device = bed.registry().device_of_instance("fn-0");
  ASSERT_TRUE(device.has_value());
  const std::string node = device->substr(5);
  const vt::Time from = result.measure_start;
  const vt::Time to = result.horizon;
  const double manager_util = bed.manager(node).utilization(from, to);
  const double testbed_pct = bed.node_utilization_pct(node, from, to);
  EXPECT_NEAR(manager_util * 100.0, testbed_pct, 1e-6);
  // Sanity: ~30 rq/s x ~3.5 ms busy => 8-18%.
  EXPECT_GT(testbed_pct, 5.0);
  EXPECT_LT(testbed_pct, 25.0);
}

TEST(Accounting, OpsCounterMatchesWorkSubmitted) {
  testbed::Testbed bed;
  auto factory = [] {
    return std::make_unique<workloads::MatMulWorkload>(64);
  };
  ASSERT_TRUE(bed.deploy_blastfunction("mm", factory).ok());
  constexpr int kRequests = 10;
  auto instance = bed.gateway().instance("mm");
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(instance->invoke().ok());
  }
  auto device = bed.registry().device_of_instance("mm-0");
  ASSERT_TRUE(device.has_value());
  auto& manager = bed.manager(device->substr(5));
  // Per request: write A, write B, kernel, read C => 4 ops, 1 task.
  EXPECT_EQ(manager.tasks_executed(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(manager.ops_executed(),
            static_cast<std::uint64_t>(kRequests) * 4);
  EXPECT_EQ(bed.board(device->substr(5)).kernel_launch_count(),
            static_cast<std::uint64_t>(kRequests));
}

TEST(Accounting, RequestLatencyBoundsDeviceTime) {
  // A request's latency can never be below its own device busy time.
  testbed::Testbed bed;
  auto factory = [] {
    return std::make_unique<workloads::SobelWorkload>();
  };
  ASSERT_TRUE(bed.deploy_blastfunction("fn", factory).ok());
  auto instance = bed.gateway().instance("fn");
  ASSERT_TRUE(instance->invoke().ok());  // cold
  auto result = instance->invoke();
  ASSERT_TRUE(result.ok());
  auto device = bed.registry().device_of_instance("fn-0");
  ASSERT_TRUE(device.has_value());
  const double busy_per_request =
      bed.board(device->substr(5))
          .client_busy_between("fn-0", vt::Time::zero(),
                               vt::Time::seconds(60))
          .sec() /
      2.0;  // two requests
  EXPECT_GT(result.value().latency.sec(), busy_per_request);
  // ...but not absurdly above it at idle (no queueing).
  EXPECT_LT(result.value().latency.sec(), busy_per_request + 0.010);
}

}  // namespace
}  // namespace bf
