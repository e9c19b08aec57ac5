// bf::trace: chrome-trace export of board occupancy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "loadgen/loadgen.h"
#include "testbed/testbed.h"
#include "trace/chrome_trace.h"
#include "workloads/sobel.h"

namespace bf::trace {
namespace {

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TraceBuilder, EmitsChromeTraceFormat) {
  TraceBuilder builder;
  builder.add(Span{"fpga-A", "sobel-1-0", vt::Time::millis(10),
                   vt::Time::millis(25)});
  builder.add(Span{"fpga-B", "mm-1-0", vt::Time::millis(12),
                   vt::Time::millis(14)});
  const std::string json = builder.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sobel-1-0\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10000"), std::string::npos);   // us
  EXPECT_NE(json.find("\"dur\":15000"), std::string::npos);  // us
  // Track metadata rows.
  EXPECT_NE(json.find("\"name\":\"fpga-A\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fpga-B\""), std::string::npos);
  EXPECT_EQ(builder.span_count(), 2u);
}

TEST(TraceBuilder, RejectsInvertedSpan) {
  TraceBuilder builder;
  EXPECT_THROW(builder.add(Span{"t", "n", vt::Time::millis(5),
                                vt::Time::millis(1)}),
               ContractViolation);
}

TEST(TraceBuilder, CapturesRealBoardOccupancy) {
  testbed::Testbed bed;
  auto factory = [] {
    return std::make_unique<workloads::SobelWorkload>(640, 480);
  };
  ASSERT_TRUE(bed.deploy_blastfunction("sobel-1", factory).ok());
  ASSERT_TRUE(bed.deploy_blastfunction("sobel-2", factory).ok());
  std::vector<loadgen::DriveSpec> specs;
  for (int i = 1; i <= 2; ++i) {
    loadgen::DriveSpec spec;
    spec.function = "sobel-" + std::to_string(i);
    spec.target_rps = 20;
    spec.warmup = vt::Duration::seconds(2);
    spec.duration = vt::Duration::seconds(2);
    specs.push_back(spec);
  }
  (void)loadgen::drive_all(bed.gateway(), specs);

  TraceBuilder builder;
  for (const std::string& node : bed.node_names()) {
    builder.add_board_occupancy(bed.board(node), vt::Time::zero(),
                                vt::Time::seconds(30));
  }
  EXPECT_GT(builder.span_count(), 50u);  // ~4s x 20rq/s x 2 tenants
  const std::string json = builder.to_json();
  EXPECT_NE(json.find("sobel-1-0"), std::string::npos);
  EXPECT_NE(json.find("sobel-2-0"), std::string::npos);

  const std::string path = "/tmp/bf_trace_test.json";
  ASSERT_TRUE(builder.write_file(path).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string contents((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, json);
  std::remove(path.c_str());
}

// Duck-typed stand-in for sim::Board: add_board_occupancy only needs
// busy_snapshot() and id(), which lets the clipping contract be pinned
// without driving a whole testbed.
struct FakeBusy {
  std::string client_id;
  vt::Time start;
  vt::Time end;
};

struct FakeBoard {
  std::string id_ = "fpga-fake";
  std::vector<FakeBusy> intervals;

  [[nodiscard]] const std::string& id() const { return id_; }
  // Mirrors sim::Board::busy_snapshot: returns the raw (unclipped)
  // intervals overlapping [from, to].
  [[nodiscard]] std::vector<FakeBusy> busy_snapshot(vt::Time from,
                                                    vt::Time to) const {
    std::vector<FakeBusy> out;
    for (const FakeBusy& busy : intervals) {
      if (busy.end > from && busy.start < to) out.push_back(busy);
    }
    return out;
  }
};

// Regression: intervals straddling a window edge used to be exported with
// their raw endpoints, leaking activity outside the requested [from, to]
// window; they must be clipped to the edge instead of dropped or leaked.
TEST(TraceBuilder, ClipsStraddlingIntervalsToWindowEdges) {
  FakeBoard board;
  board.intervals = {
      {"left", vt::Time::millis(10), vt::Time::millis(50)},    // straddles from
      {"inside", vt::Time::millis(25), vt::Time::millis(35)},  // untouched
      {"right", vt::Time::millis(30), vt::Time::millis(90)},   // straddles to
      {"outside", vt::Time::millis(90), vt::Time::millis(99)},  // excluded
  };
  TraceBuilder builder;
  builder.add_board_occupancy(board, vt::Time::millis(20),
                              vt::Time::millis(40));
  const std::vector<Span> spans = builder.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& span : spans) {
    EXPECT_GE(span.start.ns(), vt::Time::millis(20).ns()) << span.name;
    EXPECT_LE(span.end.ns(), vt::Time::millis(40).ns()) << span.name;
  }
  // Sorted by start: left (clipped to 20), inside (25), right (30, clipped
  // end 40).
  EXPECT_EQ(spans[0].name, "left");
  EXPECT_EQ(spans[0].start.ns(), vt::Time::millis(20).ns());
  EXPECT_EQ(spans[0].end.ns(), vt::Time::millis(40).ns());
  EXPECT_EQ(spans[1].name, "inside");
  EXPECT_EQ(spans[1].start.ns(), vt::Time::millis(25).ns());
  EXPECT_EQ(spans[1].end.ns(), vt::Time::millis(35).ns());
  EXPECT_EQ(spans[2].name, "right");
  EXPECT_EQ(spans[2].start.ns(), vt::Time::millis(30).ns());
  EXPECT_EQ(spans[2].end.ns(), vt::Time::millis(40).ns());
}

TEST(TraceBuilder, CriticalPathChargesDeepestSpan) {
  // request [0,100] with gateway [0,10], task [20,80] split into
  // queue-wait [20,30] + execute [30,80]; root keeps [10,20] and [80,100].
  constexpr std::uint64_t kTrace = 7;
  TraceBuilder builder;
  builder.add(Span{"pod", "request", vt::Time::zero(), vt::Time::millis(100),
                   kTrace, 1, 0});
  builder.add(Span{"pod", "gateway", vt::Time::zero(), vt::Time::millis(10),
                   kTrace, 2, 1});
  builder.add(Span{"devmgr", "task", vt::Time::millis(20), vt::Time::millis(80),
                   kTrace, 3, 1});
  builder.add(Span{"devmgr", "queue-wait", vt::Time::millis(20),
                   vt::Time::millis(30), kTrace, 4, 3});
  builder.add(Span{"devmgr", "execute", vt::Time::millis(30),
                   vt::Time::millis(80), kTrace, 5, 3});

  auto path = builder.critical_path(kTrace);
  ASSERT_TRUE(path.ok()) << path.status().to_string();
  EXPECT_EQ(path.value().trace_id, kTrace);
  EXPECT_EQ(path.value().total.ns(), vt::Duration::millis(100).ns());

  ASSERT_EQ(path.value().hops.size(), 4u);  // first-appearance order
  EXPECT_EQ(path.value().hops[0].name, "gateway");
  EXPECT_EQ(path.value().hops[0].self.ns(), vt::Duration::millis(10).ns());
  EXPECT_EQ(path.value().hops[1].name, "request");
  EXPECT_EQ(path.value().hops[1].self.ns(), vt::Duration::millis(30).ns());
  EXPECT_EQ(path.value().hops[2].name, "queue-wait");
  EXPECT_EQ(path.value().hops[2].self.ns(), vt::Duration::millis(10).ns());
  EXPECT_EQ(path.value().hops[3].name, "execute");
  EXPECT_EQ(path.value().hops[3].self.ns(), vt::Duration::millis(50).ns());

  vt::Duration sum = vt::Duration::nanos(0);
  for (const auto& hop : path.value().hops) sum += hop.self;
  EXPECT_EQ(sum.ns(), path.value().total.ns());

  EXPECT_EQ(builder.critical_path(999).status().code(),
            StatusCode::kNotFound);
}

TEST(TraceBuilder, TracedSpansCarryArgsAndFlows) {
  TraceBuilder builder;
  builder.add(Span{"pod", "request", vt::Time::zero(), vt::Time::millis(10),
                   0xabcd, 0x11, 0});
  builder.add(Span{"devmgr", "task", vt::Time::millis(2), vt::Time::millis(8),
                   0xabcd, 0x22, 0x11});
  builder.add(Span{"pod", "plain", vt::Time::millis(8), vt::Time::millis(9)});
  const std::string json = builder.to_json();
  // Ids surface as event args (hex), parent omitted for the root.
  EXPECT_NE(json.find("\"trace\":\"0x000000000000abcd\""), std::string::npos);
  EXPECT_NE(json.find("\"span\":\"0x0000000000000022\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":\"0x0000000000000011\""), std::string::npos);
  // The cross-track parent link also gets a flow arrow pair.
  EXPECT_NE(json.find("\"cat\":\"flow\",\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\",\"ph\":\"f\""), std::string::npos);
  // Untraced spans carry no args and never participate in flows.
  const std::size_t plain = json.find("\"name\":\"plain\"");
  ASSERT_NE(plain, std::string::npos);
  const std::size_t plain_end = json.find('}', plain);
  EXPECT_EQ(json.substr(plain, plain_end - plain).find("args"),
            std::string::npos);
}

TEST(TraceBuilder, WindowClipsSpans) {
  testbed::Testbed bed;
  auto factory = [] {
    return std::make_unique<workloads::SobelWorkload>(320, 240);
  };
  ASSERT_TRUE(bed.deploy_blastfunction("fn", factory).ok());
  ASSERT_TRUE(bed.gateway().invoke("fn").ok());
  TraceBuilder empty_window;
  for (const std::string& node : bed.node_names()) {
    empty_window.add_board_occupancy(bed.board(node),
                                     vt::Time::seconds(100),
                                     vt::Time::seconds(200));
  }
  EXPECT_EQ(empty_window.span_count(), 0u);
}

}  // namespace
}  // namespace bf::trace
