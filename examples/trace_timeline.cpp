// Exports a Perfetto/chrome://tracing timeline with full request tracing.
//
// Runs a small two-tenant Sobel scenario with a seeded TraceBuilder
// installed, so every request records parent-linked spans from the gateway
// (request / gateway / handler) through the rpc + Device Manager task
// queue (task = queue-wait + execute, op:*) down to board kernel
// execution, then overlays the boards' per-tenant occupancy tracks and
// writes blastfunction_trace.json — open it in ui.perfetto.dev (or
// chrome://tracing) to follow any request across tracks via flow arrows.
// Also prints one request's critical-path breakdown, whose hop self-times
// sum exactly to the gateway-reported end-to-end latency (docs/TRACING.md).
//
//   ./example_trace_timeline [output.json]
#include <cstdio>
#include <memory>

#include "loadgen/loadgen.h"
#include "testbed/testbed.h"
#include "trace/chrome_trace.h"
#include "workloads/sobel.h"

using namespace bf;

int main(int argc, char** argv) {
  const std::string output =
      argc > 1 ? argv[1] : "blastfunction_trace.json";

  trace::TraceBuilder builder(/*seed=*/42);
  testbed::TestbedOptions options;
  options.trace = &builder;  // must outlive the Testbed
  {
    testbed::Testbed bed(options);
    auto factory = [] {
      return std::make_unique<workloads::SobelWorkload>(256, 256);
    };
    for (int i = 1; i <= 2; ++i) {
      BF_CHECK(bed.deploy_blastfunction("sobel-" + std::to_string(i), factory)
                   .ok());
    }
    std::vector<loadgen::DriveSpec> specs;
    for (int i = 1; i <= 2; ++i) {
      loadgen::DriveSpec spec;
      spec.function = "sobel-" + std::to_string(i);
      spec.target_rps = 10;
      spec.warmup = vt::Duration::seconds(2);
      spec.duration = vt::Duration::seconds(2);
      specs.push_back(spec);
    }
    (void)loadgen::drive_all(bed.gateway(), specs);

    // One more traced request, held onto for the critical-path printout.
    auto result = bed.gateway().invoke("sobel-1");
    if (result.ok()) {
      auto path = builder.critical_path(result.value().trace_id);
      if (path.ok()) {
        std::printf("critical path of one sobel-1 request "
                    "(e2e %.3f ms):\n",
                    result.value().e2e_latency.ms());
        for (const auto& hop : path.value().hops) {
          std::printf("  %-14s %-12s %8.3f ms\n", hop.name.c_str(),
                      hop.track.c_str(), hop.self.ms());
        }
      }
    }

    // Overlay the boards' per-tenant occupancy for the measured window.
    for (const std::string& node : bed.node_names()) {
      builder.add_board_occupancy(bed.board(node), vt::Time::seconds(2),
                                  vt::Time::seconds(5));
    }
  }  // Testbed teardown uninstalls the sink before `builder` dies.

  Status written = builder.write_file(output);
  if (!written.ok()) {
    std::printf("error: %s\n", written.to_string().c_str());
    return 1;
  }
  std::printf("wrote %zu spans to %s\n", builder.span_count(),
              output.c_str());
  std::printf("open ui.perfetto.dev (or chrome://tracing) and load the file; "
              "request spans link across tracks via flow arrows.\n");
  return 0;
}
