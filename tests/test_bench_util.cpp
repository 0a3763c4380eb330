// bench::Options::try_parse — the testable core of the experiment
// binaries' flag parsing: valid flag sets fill the struct, unknown flags,
// shared flags the bench does not read, trailing flags with a missing
// value and malformed numbers are rejected with an error message that
// names the offending flag — the --bench-json record writer, the
// --telemetry record's worker count, and bench_service's own flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/jsonl.hpp"
#include "service_flags.hpp"
#include "workload/experiment.hpp"

namespace slcube::bench {
namespace {

/// Every shared flag, as a bench that reads them all would pass it.
constexpr unsigned kEveryFlag = kJsonl | kAudit | kDim | kTrials | kSeed |
                                kThreads | kBenchJson | kTelemetry;

/// argv-style scratch: gtest owns the strings, try_parse sees char**.
struct Argv {
  explicit Argv(std::vector<std::string> words) : strings(std::move(words)) {
    strings.insert(strings.begin(), "bench_test");
    pointers.reserve(strings.size());
    for (auto& s : strings) pointers.push_back(s.data());
  }
  [[nodiscard]] int argc() { return static_cast<int>(pointers.size()); }
  [[nodiscard]] char** argv() { return pointers.data(); }

  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

TEST(BenchUtil, ParsesEveryFlag) {
  Argv a({"--csv", "--audit", "--csv-file", "out.csv", "--jsonl", "t.jsonl",
          "--dim", "9", "--trials", "77", "--seed", "12345", "--threads",
          "3", "--bench-json", "b.json", "--telemetry", "tele.jsonl"});
  Options o;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), kEveryFlag, o, error))
      << error;
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.audit);
  EXPECT_EQ(o.csv_file, "out.csv");
  EXPECT_EQ(o.jsonl_file, "t.jsonl");
  EXPECT_EQ(o.dim, 9u);
  EXPECT_EQ(o.trials, 77u);
  EXPECT_EQ(o.seed, 12345u);
  EXPECT_EQ(o.threads, 3u);
  EXPECT_EQ(o.bench_json, "b.json");
  EXPECT_EQ(o.telemetry_file, "tele.jsonl");
}

TEST(BenchUtil, EmptyCommandLineKeepsDefaults) {
  Argv a({});
  Options o;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), 0, o, error));
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.audit);
  EXPECT_EQ(o.trials, 0u);
  EXPECT_EQ(o.dim, 0u);
  EXPECT_EQ(o.seed, 0u);
  EXPECT_EQ(o.threads, 0u);
  EXPECT_TRUE(o.csv_file.empty());
  EXPECT_TRUE(o.jsonl_file.empty());
  EXPECT_TRUE(o.bench_json.empty());
  EXPECT_TRUE(o.telemetry_file.empty());
}

TEST(BenchUtil, RejectsUnknownFlagByName) {
  Argv a({"--trials", "5", "--missions", "6"});
  Options o;
  std::string error;
  EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), kEveryFlag, o, error));
  EXPECT_NE(error.find("--missions"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown"), std::string::npos) << error;
}

TEST(BenchUtil, RejectsSharedFlagsTheBenchDoesNotRead) {
  // A bench that reads only --trials and --seed: every other shared flag
  // is named and refused, switch or value flag alike, instead of being
  // parsed and ignored. --csv and --csv-file are always read (emit()).
  const unsigned reads = kTrials | kSeed;
  for (const std::vector<std::string>& words :
       std::vector<std::vector<std::string>>{{"--audit"},
                                             {"--threads", "4"},
                                             {"--telemetry", "t.jsonl"},
                                             {"--bench-json", "b.json"},
                                             {"--jsonl", "t.jsonl"},
                                             {"--dim", "5"}}) {
    Argv a(words);
    Options o;
    std::string error;
    EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), reads, o, error))
        << words[0];
    EXPECT_NE(error.find(words[0]), std::string::npos) << error;
    EXPECT_NE(error.find("not read"), std::string::npos) << error;
  }
  Argv a({"--trials", "5", "--seed", "9", "--csv", "--csv-file", "o.csv"});
  Options o;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), reads, o, error))
      << error;
  EXPECT_EQ(o.trials, 5u);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_TRUE(o.csv);
  EXPECT_EQ(o.csv_file, "o.csv");
  EXPECT_EQ(Options::usage(reads),
            " [--csv] [--csv-file F] [--trials N] [--seed S]");
}

TEST(BenchUtil, RejectsTrailingFlagMissingItsValue) {
  // Each case: the words after argv[0], the flag the error must name, and
  // why. A numeric value with a sign, a trailing character, no digits, or
  // more than its field holds is as bad as a missing one.
  struct Case {
    std::vector<std::string> words;
    std::string flag;
    std::string why;
  };
  std::vector<Case> cases;
  for (const char* flag : {"--csv-file", "--jsonl", "--dim", "--trials",
                           "--seed", "--threads", "--bench-json",
                           "--telemetry"}) {
    cases.push_back({{flag}, flag, "missing its value"});
  }
  for (const char* bad : {"-1", "4x", "", "99999999999"}) {
    cases.push_back({{"--threads", bad}, "--threads", "unsigned integer"});
  }
  cases.push_back(
      {{"--seed", "18446744073709551616"}, "--seed", "unsigned integer"});
  for (const Case& c : cases) {
    Argv a(c.words);
    Options o;
    std::string error;
    EXPECT_FALSE(Options::try_parse(a.argc(), a.argv(), kEveryFlag, o, error))
        << c.flag << " " << (c.words.size() > 1 ? c.words[1] : "");
    EXPECT_NE(error.find(c.flag), std::string::npos) << error;
    EXPECT_NE(error.find(c.why), std::string::npos) << error;
  }
}

TEST(BenchUtil, ParseUnsignedTakesOnlyDigitsThatFit) {
  unsigned u = 7;
  EXPECT_TRUE(parse_unsigned("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_unsigned("4294967295", u));
  EXPECT_EQ(u, 4294967295u);
  for (const char* bad :
       {"-1", "4x", "", "99999999999", "4294967296", "+4", " 4", "4 "}) {
    EXPECT_FALSE(parse_unsigned(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 4294967295u) << "'" << bad << "' changed the field";
  }
  std::uint64_t seed = 0;
  EXPECT_TRUE(parse_unsigned("18446744073709551615", seed));
  EXPECT_EQ(seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_unsigned("18446744073709551616", seed));
  EXPECT_EQ(seed, std::numeric_limits<std::uint64_t>::max());
}

TEST(BenchUtil, WriteRecordWritesOneFlatObjectOnlyWithTheFlag) {
  bool filled = false;
  const auto fill = [&filled](obs::JsonWriter& w) {
    filled = true;
    w.field("bench", "t")
        .field("digest", std::uint64_t{17060587129290960515ull})
        .field("ok", true)
        .field("bytes", 10928.0 / 16384.0);  // Q14's packed bytes per node
  };

  const Options off;
  EXPECT_TRUE(write_record(off, fill));
  EXPECT_FALSE(filled);

  Options bad;
  bad.bench_json = ::testing::TempDir() + "slcube_no_such_dir/record.json";
  EXPECT_FALSE(write_record(bad, fill));

  // Raw text, not read_jsonl_file: the reader holds numbers as doubles,
  // which would round a digest above 2^53.
  Options on;
  on.bench_json = ::testing::TempDir() + "slcube_bench_record.json";
  ASSERT_TRUE(write_record(on, fill));
  std::ifstream in(on.bench_json);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "{\"bench\":\"t\",\"digest\":17060587129290960515,"
            "\"ok\":true,\"bytes\":0.666992}\n");
  std::remove(on.bench_json.c_str());
}

TEST(BenchUtil, TelemetrySessionIsGatedOnTheFlag) {
  const Options off;
  TelemetrySession none(off);
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.hooks().registry, nullptr);
  EXPECT_EQ(none.hooks().profiler, nullptr);
  EXPECT_EQ(none.hooks().recorder, nullptr);
  none.hooks().tick();                 // no-op, not a crash
  EXPECT_TRUE(none.finish(6, 1));      // nothing to write, still OK

  Options on;
  on.telemetry_file = ::testing::TempDir() + "slcube_bench_tele.jsonl";
  TelemetrySession session(on);
  EXPECT_TRUE(session.enabled());
  ASSERT_NE(session.hooks().registry, nullptr);
  session.hooks().registry->counter("gate.count").inc(3);
  session.hooks().tick();
  ASSERT_TRUE(session.finish(6, 2));
  std::size_t malformed = 0;
  const auto events = obs::read_jsonl_file(on.telemetry_file, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind(), "telemetry_meta");
  EXPECT_EQ(events[0].integer("dim"), 6);
  EXPECT_EQ(events[0].integer("threads"), 2);
  EXPECT_EQ(events[0].integer("ticks"), 1);
  EXPECT_EQ(events[1].kind(), "ts_sample");
  EXPECT_FALSE(events[1].has("t_ms"));
  EXPECT_EQ(events[1].integer("c.gate.count"), 3);
  std::remove(on.telemetry_file.c_str());
}

// A telemetered sweep run without --threads (Options::threads == 0, one
// worker per hardware thread) records the engine's real worker count in
// telemetry_meta, as the sweep benches hand it back from the points.
TEST(BenchUtil, TelemeteredSweepRecordsItsWorkerCount) {
  Argv a({"--telemetry", ::testing::TempDir() + "slcube_bench_workers.jsonl"});
  Options opt;
  std::string error;
  ASSERT_TRUE(Options::try_parse(a.argc(), a.argv(), kThreads | kTelemetry,
                                 opt, error))
      << error;
  ASSERT_EQ(opt.threads, 0u);
  TelemetrySession telemetry(opt);
  workload::LinkSweepConfig config;
  config.dimension = 5;
  config.points = {{2, 2}};
  config.trials = 4;
  config.pairs = 4;
  config.threads = opt.threads;
  config.instrumentation = telemetry.hooks();
  const auto points = workload::run_link_routing_sweep(config);
  ASSERT_EQ(points.size(), 1u);
  const unsigned workers = points.front().timing.workers;
  EXPECT_GE(workers, 1u);
  ASSERT_TRUE(telemetry.finish(config.dimension, workers));
  const auto events = obs::read_jsonl_file(opt.telemetry_file);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind(), "telemetry_meta");
  EXPECT_EQ(events[0].integer("threads"), static_cast<std::int64_t>(workers));
  std::remove(opt.telemetry_file.c_str());
}

// bench_service strips its seven own flags before Options parses the
// shared ones; its usage line names both kinds.
TEST(BenchUtil, ServiceUsageNamesTheServiceFlags) {
  const unsigned reads = kJsonl | kAudit | kDim | kSeed;
  EXPECT_EQ(service_usage(reads),
            " [--csv] [--csv-file F] [--jsonl F] [--audit] [--dim N]"
            " [--seed S] [--readers N] [--requests N] [--churn-pause-us N]"
            " [--verify-every N] [--sample] [--script-epochs N]"
            " [--head-every N]");
  // Every flag in the usage line is one take_service_flags strips.
  Argv a({"--readers", "2", "--requests", "3", "--churn-pause-us", "4",
          "--verify-every", "5", "--sample", "--script-epochs", "6",
          "--head-every", "7", "--telemetry", "t.jsonl"});
  int argc = a.argc();
  const ServiceOptions svc = take_service_flags(argc, a.argv());
  EXPECT_EQ(argc, 3);  // argv[0] and --telemetry's pair are left
  EXPECT_STREQ(a.argv()[1], "--telemetry");
  EXPECT_EQ(svc.readers, 2u);
  EXPECT_EQ(svc.requests, 3u);
  EXPECT_EQ(svc.churn_pause_us, 4u);
  EXPECT_EQ(svc.verify_every, 5u);
  EXPECT_TRUE(svc.sample);
  EXPECT_EQ(svc.script_epochs, 6u);
  EXPECT_EQ(svc.head_every, 7u);
}

TEST(BenchUtil, AuditSinkIsGatedOnTheFlag) {
  Options off;
  EXPECT_EQ(off.make_audit_sink(6), nullptr);
  Options on;
  on.audit = true;
  const auto sink = on.make_audit_sink(6);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(finish_audit(sink.get()), 0);  // empty stream audits clean
  EXPECT_EQ(finish_audit(nullptr), 0);
}

}  // namespace
}  // namespace slcube::bench
