// Shared plumbing for the experiment binaries: flag parsing (--csv emits
// machine-readable output on stdout, --csv-file writes the same CSV to a
// file in the same run, --jsonl streams per-point obs events, --audit
// streams the same events through the invariant-checking AuditSink,
// --dim/--trials/--seed override binary defaults, and --threads sets the
// sweep-engine worker count — results are bit-identical for every value;
// each bench names the flags it reads and rejects the rest), table
// emission, the --telemetry flight record, and the --bench-json record.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

#include "common/table.hpp"
#include "obs/audit.hpp"
#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace slcube::bench {

/// Parse a flag's value as an unsigned decimal that fits `T`: digits
/// only, so a sign, a space, a trailing character, an empty string or an
/// overflow all fail and leave `out` untouched.
template <typename T>
[[nodiscard]] bool parse_unsigned(std::string_view text, T& out) {
  T value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return false;
  out = value;
  return true;
}

/// The shared flags. A bench passes Options::parse the set of those it
/// reads, and any other shared flag exits 2 by name instead of being
/// ignored. --csv and --csv-file are always read: every bench prints its
/// tables through emit(), which honours both.
enum Flag : unsigned {
  kCsv = 1u << 0,
  kCsvFile = 1u << 1,
  kJsonl = 1u << 2,
  kAudit = 1u << 3,
  kDim = 1u << 4,
  kTrials = 1u << 5,
  kSeed = 1u << 6,
  kThreads = 1u << 7,
  kBenchJson = 1u << 8,
  kTelemetry = 1u << 9,
};

/// Each shared flag with its bit and the value it takes in the usage
/// line ("" for a switch).
struct FlagSpec {
  const char* name;
  Flag bit;
  const char* value;
};
inline constexpr FlagSpec kFlagSpecs[] = {
    {"--csv", kCsv, ""},
    {"--csv-file", kCsvFile, " F"},
    {"--jsonl", kJsonl, " F"},
    {"--audit", kAudit, ""},
    {"--dim", kDim, " N"},
    {"--trials", kTrials, " N"},
    {"--seed", kSeed, " S"},
    {"--threads", kThreads, " N"},
    {"--bench-json", kBenchJson, " F"},
    {"--telemetry", kTelemetry, " F"},
};

struct Options {
  bool csv = false;
  /// Tee every trace event through an obs::AuditSink so the bench
  /// self-verifies the paper invariants while it measures.
  bool audit = false;
  unsigned trials = 0;     ///< 0 = binary default
  unsigned dim = 0;        ///< 0 = binary default
  std::uint64_t seed = 0;  ///< 0 = binary default
  /// Sweep-engine workers: 0 = one per hardware thread, 1 = serial.
  /// Changes wall time only, never results.
  unsigned threads = 0;
  std::string csv_file;    ///< empty = no CSV file artifact
  std::string jsonl_file;  ///< empty = no JSONL trace artifact
  std::string bench_json;  ///< empty = no summary JSON artifact
  /// Telemetry recording (empty = off): the time-series + stage JSONL
  /// lands here.
  std::string telemetry_file;

  /// The usage line's flags: --csv, --csv-file and those in `reads`.
  [[nodiscard]] static std::string usage(unsigned reads) {
    std::string out;
    for (const FlagSpec& f : kFlagSpecs) {
      if (((reads | kCsv | kCsvFile) & f.bit) != 0) {
        out += std::string(" [") + f.name + f.value + "]";
      }
    }
    return out;
  }

  /// Testable core of parse(): fills `out` and returns true, or returns
  /// false with `error` naming the offending flag (unknown flag, a shared
  /// flag outside `reads`, a trailing flag missing its value argument, or
  /// a numeric flag whose value parse_unsigned rejects).
  [[nodiscard]] static bool try_parse(int argc, char** argv, unsigned reads,
                                      Options& out, std::string& error) {
    const auto text = [&](int& i, std::string& field) {
      if (i + 1 >= argc) {
        error = std::string("flag ") + argv[i] + " is missing its value";
        return false;
      }
      field = argv[++i];
      return true;
    };
    const auto number = [&](int& i, auto& field) {
      std::string v;
      if (!text(i, v)) return false;
      if (parse_unsigned(v, field)) return true;
      error = std::string("flag ") + argv[i - 1] +
              " needs an unsigned integer that fits, not '" + v + "'";
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& f : kFlagSpecs) {
        if (std::strcmp(argv[i], f.name) == 0) spec = &f;
      }
      if (spec == nullptr) {
        error = std::string("unknown flag '") + argv[i] + "'";
        return false;
      }
      if (((reads | kCsv | kCsvFile) & spec->bit) == 0) {
        error = std::string("flag ") + argv[i] + " is not read by this bench";
        return false;
      }
      bool ok = true;
      switch (spec->bit) {
        case kCsv: out.csv = true; break;
        case kCsvFile: ok = text(i, out.csv_file); break;
        case kJsonl: ok = text(i, out.jsonl_file); break;
        case kAudit: out.audit = true; break;
        case kDim: ok = number(i, out.dim); break;
        case kTrials: ok = number(i, out.trials); break;
        case kSeed: ok = number(i, out.seed); break;
        case kThreads: ok = number(i, out.threads); break;
        case kBenchJson: ok = text(i, out.bench_json); break;
        case kTelemetry: ok = text(i, out.telemetry_file); break;
      }
      if (!ok) return false;
    }
    return true;
  }

  /// Parse or die: prints the error and a usage line, then exits 2.
  /// `reads` is the set of shared flags the bench reads (Flag bits).
  static Options parse(int argc, char** argv, unsigned reads) {
    Options o;
    std::string error;
    if (!try_parse(argc, argv, reads, o, error)) {
      std::cerr << argv[0] << ": " << error << "\nusage: " << argv[0]
                << usage(reads) << '\n';
      std::exit(2);
    }
    return o;
  }

  /// JSONL sink for --jsonl, or null when the flag is absent — the raw
  /// pointer of the result is safe to hand to SweepConfig::trace /
  /// run_rounds_sweep either way. The file is truncated on open.
  [[nodiscard]] std::unique_ptr<obs::JsonlSink> make_jsonl_sink() const {
    if (jsonl_file.empty()) return nullptr;
    return std::make_unique<obs::JsonlSink>(jsonl_file);
  }

  /// AuditSink for --audit (dimension-aware checks enabled), or null
  /// when the flag is absent.
  [[nodiscard]] std::unique_ptr<obs::AuditSink> make_audit_sink(
      unsigned dimension) const {
    if (!audit) return nullptr;
    obs::AuditConfig config;
    config.dimension = dimension;
    return std::make_unique<obs::AuditSink>(config);
  }
};

/// Close out a --audit run: print the verdict (with violation details on
/// failure) and return the process exit code — 0 clean or no audit,
/// 1 when any invariant broke, so audited benches fail loudly in CI.
inline int finish_audit(obs::AuditSink* audit) {
  if (audit == nullptr) return 0;
  audit->finish();
  const obs::AuditReport report = audit->report();
  std::cout << "audit: " << report.events << " event(s), " << report.routes
            << " route(s), " << report.gs_waves << " GS wave(s) — ";
  if (report.clean()) {
    std::cout << "clean\n";
    return 0;
  }
  std::cout << report.violations_total << " VIOLATION(S)\n";
  for (const auto& v : report.details) {
    std::cout << "  [" << obs::to_string(v.kind) << "] " << v.detail << '\n';
  }
  return 1;
}

/// One --telemetry recording for the lifetime of a bench run: owns the
/// registry, profiler, and recorder when the flag is set, and nothing at
/// all when it isn't — hooks() then hands out null pointers and every
/// instrumented call site stays on its untelemetered path. finish()
/// writes the flight record: one "telemetry_meta" line, the ts_sample
/// time series of the ticks the driver took (byte-identical across
/// --threads), and the merged stage tree.
class TelemetrySession {
 public:
  explicit TelemetrySession(const Options& options)
      : file_(options.telemetry_file) {
    if (file_.empty()) return;
    registry_ = std::make_unique<obs::Registry>();
    profiler_ = std::make_unique<obs::Profiler>();
    recorder_ = std::make_unique<obs::TimeSeriesRecorder>(*registry_);
  }

  [[nodiscard]] bool enabled() const { return recorder_ != nullptr; }

  /// The hooks to thread into sweep configs / EngineOptions; all null
  /// when telemetry is off.
  [[nodiscard]] obs::InstrumentationHooks hooks() const {
    obs::InstrumentationHooks h;
    h.registry = registry_.get();
    h.profiler = profiler_.get();
    h.recorder = recorder_.get();
    return h;
  }

  /// Write the telemetry artifacts. Returns false (with a message on
  /// stderr) if the output file cannot be opened.
  bool finish(unsigned dim, unsigned threads) {
    if (!enabled()) return true;
    std::ofstream out(file_, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << file_ << " for writing\n";
      return false;
    }
    obs::JsonWriter(out)
        .field("event", "telemetry_meta")
        .field("dim", dim)
        .field("threads", threads)
        .field("samples", recorder_->size())
        .field("ticks", recorder_->total_ticks());
    out << '\n';
    obs::write_timeseries_jsonl(out, recorder_->samples());
    obs::write_stage_jsonl(out, profiler_->report());
    return true;
  }

 private:
  std::string file_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::TimeSeriesRecorder> recorder_;
};

/// Human table (or CSV with --csv) to stdout, plus a CSV file artifact
/// when --csv-file is set — both from the single run. The first emit of
/// the process truncates the file; later emits append, so binaries that
/// print two tables produce the same concatenated CSV that capturing
/// `--csv` stdout used to.
inline void emit(const Table& table, const Options& options) {
  if (options.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
  if (!options.csv_file.empty()) {
    static bool appending = false;
    std::ofstream out(options.csv_file,
                      appending ? std::ios::app : std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << options.csv_file << " for writing\n";
      std::exit(2);
    }
    if (appending) out << '\n';
    appending = true;
    table.write_csv(out);
  }
}

/// The --bench-json record: one flat JSON object, its fields written by
/// `fill(obs::JsonWriter&)`, then a newline. scripts/bench_gate.py
/// compares every field exactly against a checked-in BENCH_*.json, so a
/// record holds only values that are exact for a commit (parameters,
/// digests, tallies, verdicts); timing belongs on stdout. Does nothing
/// without --bench-json; returns false, with a message on stderr, when
/// the file cannot be opened.
template <typename Fill>
bool write_record(const Options& options, Fill&& fill) {
  if (options.bench_json.empty()) return true;
  std::ofstream out(options.bench_json, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open " << options.bench_json << " for writing\n";
    return false;
  }
  {
    obs::JsonWriter writer(out);
    fill(writer);
  }
  out << '\n';
  return true;
}

}  // namespace slcube::bench
