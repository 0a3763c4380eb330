// bench_service's own flags: the seven it strips from the command line
// before bench::Options parses the shared ones, and the usage line that
// names both kinds.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_util.hpp"

namespace slcube::bench {

struct ServiceOptions {
  unsigned readers = 4;
  std::uint64_t requests = 1'000'000;
  unsigned churn_pause_us = 200;
  std::uint64_t verify_every = 8192;  ///< 0 = no in-flight verification
  // --sample: the deterministic tail-sampled tracing benchmark
  // (bench_service's run_sample_mode) instead of the live churn workload.
  bool sample = false;
  std::uint64_t script_epochs = 64;  ///< scripted churn events
  std::uint32_t head_every = 1024;   ///< 1-in-N head sample modulus
};

/// Split off the service-specific flags, leaving everything else for
/// bench::Options::parse (whose parser is strict about unknown flags).
inline ServiceOptions take_service_flags(int& argc, char** argv) {
  ServiceOptions svc;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    // Same rules as bench::Options: a missing or malformed value exits 2.
    const auto number = [&](auto& field) {
      const char* const flag = argv[i];
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": flag " << flag
                  << " is missing its value\n";
        std::exit(2);
      }
      if (!bench::parse_unsigned(argv[++i], field)) {
        std::cerr << argv[0] << ": flag " << flag
                  << " needs an unsigned integer that fits, not '" << argv[i]
                  << "'\n";
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--readers") == 0) {
      number(svc.readers);
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      number(svc.requests);
    } else if (std::strcmp(argv[i], "--churn-pause-us") == 0) {
      number(svc.churn_pause_us);
    } else if (std::strcmp(argv[i], "--verify-every") == 0) {
      number(svc.verify_every);
    } else if (std::strcmp(argv[i], "--sample") == 0) {
      svc.sample = true;
    } else if (std::strcmp(argv[i], "--script-epochs") == 0) {
      number(svc.script_epochs);
    } else if (std::strcmp(argv[i], "--head-every") == 0) {
      number(svc.head_every);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (svc.readers == 0) svc.readers = 1;
  return svc;
}

/// The service flags with their values, as the usage line shows them.
inline constexpr const char* kServiceUsage =
    " [--readers N] [--requests N] [--churn-pause-us N] [--verify-every N]"
    " [--sample] [--script-epochs N] [--head-every N]";

/// bench_service's usage line: the shared flags in `reads`, then its own.
[[nodiscard]] inline std::string service_usage(unsigned reads) {
  return Options::usage(reads) + kServiceUsage;
}

}  // namespace slcube::bench
