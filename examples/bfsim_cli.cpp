// bfsim: command-line experiment runner for the BlastFunction testbed.
//
// Deploys N functions of a chosen workload, drives them closed-loop at given
// rates, and prints the paper-style result table. Optionally exports a
// chrome://tracing timeline.
//
// Examples:
//   ./example_bfsim_cli --workload sobel --rates 20,15,10,5,5
//   ./example_bfsim_cli --workload mm --rates 84,70,49,42,21 --duration 20
//   ./example_bfsim_cli --workload sobel --rates 40,30 --scenario native
//   ./example_bfsim_cli --workload mm --rates 30,30 --pr-regions 2
//       --trace timeline.json  (single command line)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "loadgen/loadgen.h"
#include "testbed/testbed.h"
#include "trace/chrome_trace.h"
#include "workloads/alexnet.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"
#include "workloads/spector_extra.h"

using namespace bf;

namespace {

struct Options {
  std::string workload = "sobel";
  std::string scenario = "bf";  // bf | native
  std::vector<double> rates = {20, 15, 10, 5, 5};
  double duration_sec = 10;
  double warmup_sec = 4;
  unsigned pr_regions = 1;
  std::string trace_path;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload sobel|mm|alexnet|fir|histogram\n"
      "                                benchmark to run (default sobel)\n"
      "  --scenario bf|native          BlastFunction sharing or native\n"
      "                                baseline (default bf)\n"
      "  --rates r1,r2,...             per-function target rq/s\n"
      "                                (native uses at most 3 functions)\n"
      "  --duration SECONDS            measured window (default 10)\n"
      "  --warmup SECONDS              warmup excluded from stats (default 4)\n"
      "  --pr-regions N                space-sharing regions per board\n"
      "  --trace FILE                  write a chrome://tracing timeline\n",
      argv0);
}

std::vector<double> parse_rates(const std::string& arg) {
  std::vector<double> out;
  std::size_t begin = 0;
  while (begin < arg.size()) {
    std::size_t end = arg.find(',', begin);
    if (end == std::string::npos) end = arg.size();
    out.push_back(std::atof(arg.substr(begin, end - begin).c_str()));
    begin = end + 1;
  }
  return out;
}

workloads::WorkloadFactory make_factory(const std::string& name) {
  if (name == "sobel") {
    return [] { return std::make_unique<workloads::SobelWorkload>(); };
  }
  if (name == "mm") {
    return [] { return std::make_unique<workloads::MatMulWorkload>(); };
  }
  if (name == "alexnet") {
    return [] { return std::make_unique<workloads::AlexNetWorkload>(); };
  }
  if (name == "fir") {
    return [] { return std::make_unique<workloads::FirWorkload>(); };
  }
  if (name == "histogram") {
    return [] { return std::make_unique<workloads::HistogramWorkload>(); };
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--scenario") {
      options.scenario = value();
    } else if (flag == "--rates") {
      options.rates = parse_rates(value());
    } else if (flag == "--duration") {
      options.duration_sec = std::atof(value());
    } else if (flag == "--warmup") {
      options.warmup_sec = std::atof(value());
    } else if (flag == "--pr-regions") {
      options.pr_regions = static_cast<unsigned>(std::atoi(value()));
    } else if (flag == "--trace") {
      options.trace_path = value();
    } else if (flag == "-h" || flag == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  auto factory = make_factory(options.workload);
  if (factory == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const bool blastfunction = options.scenario == "bf";
  if (!blastfunction && options.scenario != "native") {
    std::fprintf(stderr, "unknown scenario '%s'\n", options.scenario.c_str());
    return 2;
  }
  if (options.rates.empty() || options.duration_sec <= 0) {
    usage(argv[0]);
    return 2;
  }
  if (!blastfunction && options.rates.size() > 3) {
    options.rates.resize(3);  // one native function per board
  }

  testbed::TestbedOptions bed_options;
  bed_options.pr_regions = options.pr_regions;
  testbed::Testbed bed(bed_options);

  std::printf("deploying %zu %s function(s) (%s scenario)...\n",
              options.rates.size(), options.workload.c_str(),
              blastfunction ? "BlastFunction" : "native");
  for (std::size_t i = 0; i < options.rates.size(); ++i) {
    const std::string name =
        options.workload + "-" + std::to_string(i + 1);
    Status deployed =
        blastfunction
            ? bed.deploy_blastfunction(name, factory)
            : bed.deploy_native(name, factory,
                                testbed::Testbed::kNodeNames[i]);
    if (!deployed.ok()) {
      std::fprintf(stderr, "deploy %s: %s\n", name.c_str(),
                   deployed.to_string().c_str());
      return 1;
    }
  }

  std::vector<loadgen::DriveSpec> specs;
  for (std::size_t i = 0; i < options.rates.size(); ++i) {
    loadgen::DriveSpec spec;
    spec.function = options.workload + "-" + std::to_string(i + 1);
    spec.target_rps = options.rates[i];
    spec.warmup = vt::Duration::from_seconds_f(options.warmup_sec);
    spec.duration = vt::Duration::from_seconds_f(options.duration_sec);
    specs.push_back(spec);
  }
  auto results = loadgen::drive_all(bed.gateway(), specs);

  std::printf("\n%-12s | %-4s | %9s | %9s | %10s | %10s\n", "function",
              "node", "p50", "mean", "processed", "target");
  std::printf("%s\n", std::string(70, '-').c_str());
  double total_processed = 0;
  double total_target = 0;
  for (const auto& r : results) {
    std::printf("%-12s | %-4s | %6.2f ms | %6.2f ms | %5.2f rq/s | "
                "%5.2f rq/s\n",
                r.function.c_str(), r.node.c_str(),
                r.latency_ms.empty() ? 0.0 : r.latency_ms.percentile(0.5),
                r.latency_ms.empty() ? 0.0 : r.latency_ms.mean(),
                r.processed_rps, r.target_rps);
    total_processed += r.processed_rps;
    total_target += r.target_rps;
  }
  const vt::Time from =
      vt::Time::zero() + vt::Duration::from_seconds_f(options.warmup_sec);
  const vt::Time to =
      from + vt::Duration::from_seconds_f(options.duration_sec);
  std::printf("%s\n", std::string(70, '-').c_str());
  std::printf("total: %.1f / %.0f rq/s | aggregate utilization %.1f%% of "
              "%zu00%%\n",
              total_processed, total_target,
              bed.aggregate_utilization_pct(from, to),
              bed.node_names().size());

  if (!options.trace_path.empty()) {
    trace::TraceBuilder builder;
    for (const std::string& node : bed.node_names()) {
      builder.add_board_occupancy(bed.board(node), from, to);
    }
    Status written = builder.write_file(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export: %s\n",
                   written.to_string().c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", builder.span_count(),
                options.trace_path.c_str());
  }
  return 0;
}
