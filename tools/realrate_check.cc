// realrate_check: seeded fuzzing driver for the invariant oracle and the
// differential scheduler harness (src/harness). Runs N generated workloads — each
// derived entirely from a uint64 seed — under RBS+feedback, lottery, MLFQ, and
// fixed-priority machines, validating runtime invariants and metamorphic properties.
// On the first violating seed it prints the seed, the generated workload, every
// failure, a ready-to-paste repro command, and writes the offending trace dump to
// --dump-dir. See docs/TESTING.md.
//
// Usage:
//   realrate_check [--iterations N] [--seed-base S] [--dump-dir DIR]
//                  [--no-metamorphic] [--quiet]
//   realrate_check --seed S          # one seed, verbose (the repro mode)
//
// Every numeric flag is validated strictly: negative values, garbage, and overflow
// are usage errors with a non-zero exit, never silently reinterpreted.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/differential.h"
#include "harness/workload_gen.h"

namespace {

struct Args {
  int64_t iterations = 50;
  uint64_t seed_base = 1;
  uint64_t single_seed = 0;
  bool single = false;
  bool metamorphic = true;
  bool quiet = false;
  std::string dump_dir = ".";
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iterations N] [--seed-base S] [--seed S] [--dump-dir DIR]\n"
               "          [--no-metamorphic] [--quiet]\n",
               argv0);
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A malformed number must fail loudly: silently running seed 0 instead of the
    // one pasted from a CI log would "reproduce" the wrong scenario. strtoull alone
    // is not enough — it wraps negative input ("-5" becomes 2^64-5) and clamps
    // overflow with errno, so both are rejected explicitly.
    auto next = [&](uint64_t& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg.c_str());
        return false;
      }
      const char* text = argv[++i];
      auto invalid = [&] {
        std::fprintf(stderr, "%s: invalid number '%s' for %s\n", argv[0], text,
                     arg.c_str());
        return false;
      };
      if (text[0] < '0' || text[0] > '9') {
        return invalid();  // Signs, whitespace, empty: the flags take unsigned decimal.
      }
      errno = 0;
      char* end = nullptr;
      out = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE) {
        return invalid();
      }
      return true;
    };
    uint64_t value = 0;
    if (arg == "--iterations") {
      if (!next(value)) {
        return false;
      }
      args.iterations = static_cast<int64_t>(value);
    } else if (arg == "--seed-base") {
      if (!next(value)) {
        return false;
      }
      args.seed_base = value;
    } else if (arg == "--seed") {
      if (!next(value)) {
        return false;
      }
      args.single_seed = value;
      args.single = true;
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      args.dump_dir = argv[++i];
    } else if (arg == "--no-metamorphic") {
      args.metamorphic = false;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  if (args.iterations <= 0) {
    std::fprintf(stderr, "%s: --iterations must be positive\n", argv[0]);
    return false;
  }
  return true;
}

// Writes the failing seed's artifact (spec + failures + trace) for CI upload.
// Returns the path, or "" if the directory was unwritable.
std::string WriteArtifact(const Args& args, const realrate::SeedReport& report) {
  const std::string path =
      args.dump_dir + "/realrate_check_seed_" + std::to_string(report.seed) + ".txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return "";
  }
  std::fprintf(f, "%s\nfailures:\n", report.spec.ToString().c_str());
  for (const std::string& failure : report.failures) {
    std::fprintf(f, "  %s\n", failure.c_str());
  }
  if (!report.trace_dump.empty()) {
    std::fprintf(f, "\noffending trace:\n%s", report.trace_dump.c_str());
  }
  std::fclose(f);
  return path;
}

int ReportFailure(const Args& args, const realrate::SeedReport& report) {
  std::fprintf(stderr, "FAIL seed %llu\n%s",
               static_cast<unsigned long long>(report.seed),
               report.spec.ToString().c_str());
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "  %s\n", failure.c_str());
  }
  const std::string artifact = WriteArtifact(args, report);
  if (!artifact.empty()) {
    std::fprintf(stderr, "trace dump written to %s\n", artifact.c_str());
  }
  std::fprintf(stderr, "reproduce with: realrate_check --seed %llu\n",
               static_cast<unsigned long long>(report.seed));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    return 2;
  }
  realrate::SeedCheckOptions options;
  options.run_metamorphic = args.metamorphic;

  if (args.single) {
    const realrate::SeedReport report = realrate::CheckSeed(args.single_seed, options);
    if (!report.ok()) {
      return ReportFailure(args, report);  // Prints the spec with the failures.
    }
    std::printf("%s", report.spec.ToString().c_str());
    std::printf("seed %llu: all invariants and metamorphic properties hold\n",
                static_cast<unsigned long long>(args.single_seed));
    return 0;
  }

  for (int64_t i = 0; i < args.iterations; ++i) {
    const uint64_t seed = args.seed_base + static_cast<uint64_t>(i);
    const realrate::SeedReport report = realrate::CheckSeed(seed, options);
    if (!report.ok()) {
      return ReportFailure(args, report);
    }
    if (!args.quiet && (i + 1) % 25 == 0) {
      std::printf("%lld/%lld seeds ok (last: %llu)\n", static_cast<long long>(i + 1),
                  static_cast<long long>(args.iterations),
                  static_cast<unsigned long long>(seed));
      std::fflush(stdout);
    }
  }
  if (!args.quiet) {
    std::printf("all %lld seeds passed (seeds %llu..%llu)\n",
                static_cast<long long>(args.iterations),
                static_cast<unsigned long long>(args.seed_base),
                static_cast<unsigned long long>(args.seed_base +
                                                static_cast<uint64_t>(args.iterations) - 1));
  }
  return 0;
}
