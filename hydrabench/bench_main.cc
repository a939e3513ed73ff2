// Entry point of the repository benchmark binary: parses the run options,
// refuses unoptimized or sanitizer builds, runs one workload, and prints
// the fingerprinted record followed by the one-line JSON result.
//
// Usage: hydrabench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                   [--cache <dir>] [--work <dir>] [--tiny] [--tamper]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/simd/kernels.h"
#include "hydrabench.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace hydrabench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hydrabench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 [--cache <dir>] [--work <dir>] [--tiny] "
               "[--tamper]\n");
  return 2;
}

/// Empty when this binary may produce a record; otherwise why not. Records
/// of different builds must never be compared, so only optimized,
/// unsanitized builds run.
std::string BuildRefusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (HYDRABENCH_SANITIZED) return "hydra library built with a sanitizer";
  const std::string type = HYDRABENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "'";
  }
  return "";
#endif
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--tamper") {
      options->tamper = true;
    } else if (value == nullptr) {
      return false;
    } else {
      ++i;
      if (arg == "--workload") {
        options->workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options->seed = std::strtoull(value, nullptr, 10);
      } else if (arg == "--seconds") {
        options->seconds = std::strtod(value, nullptr);
      } else if (arg == "--trace") {
        options->trace = std::strcmp(value, "1") == 0;
      } else if (arg == "--cache") {
        options->cache_dir = value;
      } else if (arg == "--work") {
        options->work_dir = value;
      } else {
        return false;
      }
    }
  }
  return have_workload && options->seconds > 0.0;
}

int Run(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "error: refusing to benchmark (%s)\n",
                 refusal.c_str());
    return 2;
  }
  const WorkloadConfig* found = FindWorkload(options.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const WorkloadConfig config = options.tiny ? Scaled(*found) : *found;
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_work/" + config.name;
  }

  Outcome out;
  RunWorkload(config, options, &out);
  if (!options.trace) {
    const double attempted = static_cast<double>(out.attempted);
    out.Set("ok_frac",
            (attempted - static_cast<double>(out.failed)) / attempted,
            "ratio");
  }
  if (out.failed > 0) out.correct = false;

  // The record: fingerprint, configuration, sample counts, gate outcome.
  hydra::util::JsonWriter record;
  record.BeginObject();
  record.Key("workload");
  record.String(config.name);
  record.Key("method");
  record.String(config.method);
  record.Key("shape");
  record.String(std::to_string(config.count) + "x" +
                std::to_string(config.length));
  record.Key("seed");
  record.Uint(options.seed);
  record.Key("trace");
  record.Bool(options.trace);
  record.Key("tiny");
  record.Bool(options.tiny);
  record.Key("nproc");
  record.Uint(hydra::util::ThreadPool::HardwareConcurrency());
  record.Key("kernels");
  record.String(hydra::core::simd::ActiveKernels().name);
  record.Key("compiler");
  record.String(HYDRABENCH_COMPILER);
  record.Key("build_type");
  record.String(HYDRABENCH_BUILD_TYPE);
  record.Key("failed_frac");
  record.Double(static_cast<double>(out.failed) /
                static_cast<double>(std::max<int64_t>(1, out.attempted)));
  for (const auto& [key, value] : out.record) {
    record.Key(key);
    record.String(value);
  }
  record.EndObject();
  std::printf("record %s\n", record.str().c_str());
  for (const std::string& note : out.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [name, metric] : out.metrics) {
    std::printf("metric %-36s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  hydra::util::JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Bool(out.correct);
  result.Key("attempted");
  result.Int(out.attempted);
  result.Key("failed");
  result.Int(out.failed);
  result.Key("metrics");
  result.BeginObject();
  for (const auto& [name, metric] : out.metrics) {
    result.Key(name);
    result.BeginObject();
    result.Key("value");
    result.Double(metric.value);
    result.Key("unit");
    result.String(metric.unit);
    result.EndObject();
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace hydrabench

int main(int argc, char** argv) { return hydrabench::Run(argc, argv); }
