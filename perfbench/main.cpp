// perfbench: one process runs one workload and prints what it measured.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Human-readable lines first; the last line is `RESULT {json}` with every
// metric the workload measured, its exact check values, and any
// correctness error. run.py selects the metrics BENCHMARK.json names and
// compares the checks against the recorded values. Exit status 1 when a
// correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload table-q20|churn-q16|live-q10|sampled-q14"
               " --seed N --seconds S --trace 0|1 [--spans-out FILE]\n";
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return false;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// JSON string body; names and messages here are plain ASCII.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage(argv[0]);
    return 2;
  }
  (void)perfbench::allowed_cpus();  // before any thread is moved
  Result result;
  if (args.workload == "table-q20") {
    result = perfbench::run_table_q20(args);
  } else if (args.workload == "churn-q16") {
    result = perfbench::run_churn_q16(args);
  } else if (args.workload == "live-q10") {
    result = perfbench::run_live_q10(args);
  } else if (args.workload == "sampled-q14") {
    result = perfbench::run_sampled_q14(args);
  } else {
    usage(argv[0]);
    return 2;
  }
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.errors.push_back("metric " + m.name + " is not finite");
    }
  }

  for (const std::string& note : result.notes) std::cout << note << '\n';
  for (const std::string& err : result.errors) {
    std::cout << "ERROR: " << err << '\n';
  }

  std::cout << std::setprecision(17) << "RESULT {\"workload\":"
            << quoted(args.workload) << ",\"seed\":" << args.seed
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    std::cout << (i ? "," : "") << quoted(result.errors[i]);
  }
  std::cout << "],\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << (i ? "," : "") << quoted(m.name) << ":{\"value\":"
              << (std::isfinite(m.value) ? m.value : 0.0)
              << ",\"unit\":" << quoted(m.unit) << "}";
  }
  std::cout << "},\"checks\":{";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    std::cout << (i ? "," : "") << quoted(result.checks[i].first) << ":"
              << result.checks[i].second;
  }
  std::cout << "}}" << std::endl;
  return result.errors.empty() ? 0 : 1;
}
