// bf::faas: gateway, function instances and execution modes.
#include <gtest/gtest.h>

#include <atomic>

#include "loadgen/loadgen.h"
#include "testbed/testbed.h"
#include "workloads/alexnet.h"
#include "workloads/sobel.h"

namespace bf::faas {
namespace {

workloads::WorkloadFactory sobel_factory() {
  return [] {
    return std::make_unique<workloads::SobelWorkload>(640, 480);
  };
}

// Sobel whose first setup() programs the board, creates its buffers and then
// fails, leaving the workload half set up. Later setups succeed.
class FailFirstSetup final : public workloads::Workload {
 public:
  explicit FailFirstSetup(std::shared_ptr<std::atomic<int>> setups)
      : setups_(std::move(setups)) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string bitstream() const override {
    return inner_.bitstream();
  }
  [[nodiscard]] std::string accelerator() const override {
    return inner_.accelerator();
  }
  Status setup(ocl::Context& context) override {
    Status status = inner_.setup(context);
    if (setups_->fetch_add(1) == 0 && status.ok()) {
      return Internal("setup failed after programming");
    }
    return status;
  }
  Status handle_request(ocl::Context& context) override {
    return inner_.handle_request(context);
  }
  void teardown() override { inner_.teardown(); }
  [[nodiscard]] std::uint64_t request_bytes_in() const override {
    return inner_.request_bytes_in();
  }
  [[nodiscard]] std::uint64_t request_bytes_out() const override {
    return inner_.request_bytes_out();
  }

 private:
  std::shared_ptr<std::atomic<int>> setups_;
  workloads::SobelWorkload inner_{640, 480};
};

// A testbed whose only board is node A's, so every tenant shares one Device
// Manager and one gate.
void keep_only_node_a(testbed::Testbed& bed) {
  ASSERT_TRUE(bed.decommission_node("B").ok());
  ASSERT_TRUE(bed.decommission_node("C").ok());
}

double gate_fallbacks(devmgr::DeviceManager& manager) {
  return manager.metrics()
      .counter("bf_devmgr_gate_fallbacks_total",
               {{"device", manager.board().id()}, {"manager", manager.id()}})
      ->value();
}

TEST(Gateway, DeployCreatesInstances) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 2).ok());
  EXPECT_EQ(bed.gateway().instance_count(), 2u);
  EXPECT_EQ(bed.gateway().instances("fn").size(), 2u);
  EXPECT_NE(bed.gateway().instance("fn", 0), nullptr);
  EXPECT_NE(bed.gateway().instance("fn", 1), nullptr);
  EXPECT_EQ(bed.gateway().instance("fn", 2), nullptr);
}

TEST(Gateway, DoubleDeployRejected) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  EXPECT_EQ(bed.deploy_blastfunction("fn", sobel_factory()).code(),
            StatusCode::kAlreadyExists);
}

TEST(Gateway, InvokeUnknownFunctionFails) {
  testbed::Testbed bed;
  EXPECT_EQ(bed.gateway().invoke("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(Gateway, InvokeServesRequest) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto result = bed.gateway().invoke("fn");
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result.value().latency.ms(), 1.0);
  auto instance = bed.gateway().instance("fn");
  EXPECT_EQ(instance->requests_served(), 1u);
  EXPECT_EQ(instance->errors(), 0u);
}

TEST(Gateway, RemoveDeletesPodsAndInstances) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 2).ok());
  ASSERT_TRUE(bed.gateway().remove("fn").ok());
  EXPECT_EQ(bed.gateway().instance_count(), 0u);
  EXPECT_EQ(bed.cluster().pod_count(), 0u);
  EXPECT_FALSE(bed.gateway().remove("fn").ok());
}

TEST(Gateway, ScaleUpAndDown) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory(), 1).ok());
  ASSERT_TRUE(bed.gateway().scale("fn", 3).ok());
  EXPECT_EQ(bed.gateway().instances("fn").size(), 3u);
  ASSERT_TRUE(bed.gateway().scale("fn", 1).ok());
  EXPECT_EQ(bed.gateway().instances("fn").size(), 1u);
}

TEST(FunctionInstance, ColdStartOnlyOnFirstInvokePersistent) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto instance = bed.gateway().instance("fn");
  EXPECT_TRUE(instance->cold());
  auto first = instance->invoke();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(instance->cold());
  auto second = instance->invoke();
  ASSERT_TRUE(second.ok());
  // Cold start (programming ~1.6 s) dominates the first request only.
  EXPECT_GT(first.value().latency.ms(), 1000.0);
  EXPECT_LT(second.value().latency.ms(), 30.0);
}

TEST(FunctionInstance, ForkModePaysPerRequestOverhead) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_native("warm", sobel_factory(), "B",
                                ExecutionMode::kPersistent)
                  .ok());
  ASSERT_TRUE(bed.deploy_native("forked", sobel_factory(), "C",
                                ExecutionMode::kForkPerRequest)
                  .ok());
  auto warm = bed.gateway().instance("warm");
  auto forked = bed.gateway().instance("forked");
  // Warm both past their cold start / first fork.
  ASSERT_TRUE(warm->invoke().ok());
  ASSERT_TRUE(forked->invoke().ok());
  auto warm_result = warm->invoke();
  auto forked_result = forked->invoke();
  ASSERT_TRUE(warm_result.ok());
  ASSERT_TRUE(forked_result.ok());
  // Fork-per-request pays fork + context attach every time (paper's native
  // Sobel/MM latency penalty).
  EXPECT_GT(forked_result.value().latency.ms(),
            warm_result.value().latency.ms() + 5.0);
}

TEST(FunctionInstance, ClockAdvancesOnlyForward) {
  testbed::Testbed bed;
  ASSERT_TRUE(bed.deploy_blastfunction("fn", sobel_factory()).ok());
  auto instance = bed.gateway().instance("fn");
  instance->advance_clock_to(vt::Time::seconds(5));
  EXPECT_EQ(instance->now(), vt::Time::seconds(5));
  instance->advance_clock_to(vt::Time::seconds(1));
  EXPECT_EQ(instance->now(), vt::Time::seconds(5));
}

TEST(FunctionInstance, MigrationRebindsToNewDevice) {
  testbed::Testbed bed;
  auto factory = sobel_factory();
  ASSERT_TRUE(bed.deploy_blastfunction("fn", factory).ok());
  auto before = bed.gateway().instance("fn");
  ASSERT_TRUE(before->invoke().ok());
  const std::string old_pod = before->pod().spec.name;
  // Simulate a registry-driven migration.
  auto replaced = bed.cluster().replace_pod(old_pod);
  ASSERT_TRUE(replaced.ok());
  auto after = bed.gateway().instance("fn");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->pod().spec.name, old_pod);
  // The replacement instance serves requests (fresh cold start included).
  auto result = after->invoke();
  EXPECT_TRUE(result.ok()) << result.status().to_string();
}

TEST(Gateway, SequentialPrewarmNeverWaitsOnTheGateStallBreaker) {
  // Two AlexNet tenants on one board, as two of shm-alexnet-4t's share one:
  // the second cold start queues behind the first tenant's weight upload,
  // past the first tenant's idle cursor. Parking the idle tenant lets the
  // worker pop those tasks at once instead of after the 1 s stall grace.
  testbed::Testbed bed;
  keep_only_node_a(bed);
  for (const char* name : {"alexnet-a", "alexnet-b"}) {
    ASSERT_TRUE(bed.deploy_blastfunction(name, [] {
                     return std::make_unique<workloads::AlexNetWorkload>();
                   }).ok());
  }
  ASSERT_TRUE(bed.gateway().warm("alexnet-a").ok());
  ASSERT_TRUE(bed.gateway().warm("alexnet-b").ok());

  devmgr::DeviceManager& manager = bed.manager("A");
  EXPECT_EQ(gate_fallbacks(manager), 0.0);
  // Nothing is left parked: the idle first tenant holds the gate at its
  // cursor again.
  EXPECT_EQ(manager.endpoint().gate().min_bound(),
            bed.gateway().instance("alexnet-a")->now());
}

TEST(FunctionInstance, FailedSetupColdStartsAgainAndWarmUnparks) {
  testbed::Testbed bed;
  keep_only_node_a(bed);
  ASSERT_TRUE(bed.deploy_blastfunction("steady", sobel_factory()).ok());
  ASSERT_TRUE(bed.gateway().warm("steady").ok());
  auto setups = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(bed.deploy_blastfunction("flaky", [setups] {
                   return std::make_unique<FailFirstSetup>(setups);
                 }).ok());
  auto flaky = bed.gateway().instance("flaky");

  EXPECT_EQ(bed.gateway().warm("flaky").code(), ErrorCode::kInternal);
  EXPECT_EQ(setups->load(), 1);
  EXPECT_TRUE(flaky->cold());
  // The failed warm unparked the steady tenant (the flaky one's session is
  // gone with its context).
  vt::Gate& gate = bed.manager("A").endpoint().gate();
  EXPECT_EQ(gate.source_count(), 1u);
  EXPECT_EQ(gate.min_bound(), bed.gateway().instance("steady")->now());

  // The next warm re-runs the whole cold start, and the instance serves.
  ASSERT_TRUE(bed.gateway().warm("flaky").ok());
  EXPECT_EQ(setups->load(), 2);
  EXPECT_FALSE(flaky->cold());
  auto served = flaky->invoke();
  ASSERT_TRUE(served.ok()) << served.status().to_string();
}

}  // namespace
}  // namespace bf::faas
