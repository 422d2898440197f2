// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced for S/2 seconds each and prints the
// per-layer metrics of the traced half plus the tracing overhead. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// The exit status is 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/cpu.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  // Threads that spin or block on the request path: dispatcher, workers,
  // generator or client, and the RPC event loop.
  int busy_threads;
  std::function<WorkloadResult(const RunConfig&)> run;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"bimodal-closed", 1 + 2 + 1,
       [](const RunConfig& c) {
         return RunInProcess({.workers = 2, .outstanding = 8, .bimodal = true}, c);
       }},
      {"noop-closed", 1 + 2 + 1,
       [](const RunConfig& c) {
         return RunInProcess({.workers = 2, .outstanding = 64, .bimodal = false}, c);
       }},
      {"kv-wire", 1 + 1 + 1 + 1, RunKvWire},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

// The thread-budget guard: a workload whose busy threads exceed the CPUs
// this process may use would report oversubscribed numbers.
bool FitsThreadBudget(const Workload& workload) {
  const int cpus = concord::AvailableCpuCount();
  if (workload.busy_threads <= cpus) {
    return true;
  }
  std::fprintf(stderr,
               "perfbench: %s needs %d busy threads but only %d CPUs are allowed; "
               "refusing to report oversubscribed numbers\n",
               workload.name, workload.busy_threads, cpus);
  return false;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n"
               "workloads: bimodal-closed noop-closed kv-wire\n",
               why);
  return 2;
}

void PrintDiagnostics(const char* workload, const WorkloadResult& result, const char* phase) {
  std::printf("# %s %s: attempted=%llu failed=%llu throughput_rps=%.1f", workload, phase,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.throughput_rps);
  for (const auto& [key, value] : result.notes) {
    std::printf(" %s=[%s]", key.c_str(), value.c_str());
  }
  if (result.partition_checked > 0) {
    std::printf(" partition_checked=%llu partition_violations=%llu",
                static_cast<unsigned long long>(result.partition_checked),
                static_cast<unsigned long long>(result.partition_violations));
  }
  std::printf("\n");
  for (const std::string& violation : result.violations) {
    std::fprintf(stderr, "perfbench: %s %s: CHECK FAILED: %s\n", workload, phase,
                 violation.c_str());
  }
  if (result.partition_violations > 0) {
    std::fprintf(stderr, "perfbench: %s %s: CHECK FAILED: spans do not tile latency (x%llu)\n",
                 workload, phase, static_cast<unsigned long long>(result.partition_violations));
  }
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-40s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int RunMeasured(const Workload& workload, std::uint64_t seed, double seconds, bool trace) {
  RunConfig config;
  config.seed = seed;
  config.seconds = seconds;
  config.host_work_rate = fixed_work::MeasureRate();
  std::printf("# host: nproc=%d busy_threads=%d work_rate=%.4f iterations/us\n",
              concord::AvailableCpuCount(), workload.busy_threads, config.host_work_rate);
  if (!trace) {
    WorkloadResult result = workload.run(config);
    PrintDiagnostics(workload.name, result, "untraced");
    std::vector<Metric> metrics = {{"throughput_rps", result.throughput_rps, "1/s"}};
    metrics.insert(metrics.end(), result.end_to_end.begin(), result.end_to_end.end());
    metrics.push_back({"setup_s", result.setup_s, "s"});
    PrintResult(result.correct(), result.attempted, result.failed, metrics);
    return result.correct() ? 0 : 1;
  }
  config.seconds = seconds / 2;
  config.setup_repeats = 1;
  const WorkloadResult untraced = workload.run(config);
  PrintDiagnostics(workload.name, untraced, "untraced");
  config.traced = true;
  WorkloadResult traced = workload.run(config);
  PrintDiagnostics(workload.name, traced, "traced");
  std::vector<Metric> metrics = traced.per_layer;
  metrics.push_back({"client.latency_p99_us", traced.latency_p99_us, "us"});
  metrics.push_back(
      {"trace.overhead_rps", untraced.throughput_rps - traced.throughput_rps, "1/s"});
  const bool correct =
      untraced.correct() && traced.correct() && traced.partition_checked > 0;
  PrintResult(correct, untraced.attempted + traced.attempted, untraced.failed + traced.failed,
              metrics);
  return correct ? 0 : 1;
}

// Short runs that must pass on every workload (with the span-partition
// identity checked), and injected faults that the checks must catch.
int SelfTest() {
  for (const Workload& workload : Workloads()) {
    if (!FitsThreadBudget(workload)) {
      return 3;
    }
  }
  struct Case {
    const char* workload;
    Fault fault;
    const char* what;
  };
  const Case cases[] = {
      {"bimodal-closed", Fault::kNone, "clean traced run"},
      {"noop-closed", Fault::kNone, "clean traced run"},
      {"kv-wire", Fault::kNone, "clean traced run"},
      {"bimodal-closed", Fault::kShortWork, "handler skips half the long-class work"},
      {"noop-closed", Fault::kDropCompletion, "one completion dropped"},
      {"kv-wire", Fault::kSkipPut, "handler acknowledges PUTs without applying them"},
  };
  int mismatches = 0;
  for (const Case& c : cases) {
    const Workload* workload = FindWorkload(c.workload);
    RunConfig config;
    config.seconds = 0.5;
    config.setup_repeats = 1;
    config.traced = true;
    config.fault = c.fault;
    const WorkloadResult result = workload->run(config);
    const bool expect_pass = c.fault == Fault::kNone;
    const bool passed = result.correct() && result.partition_checked > 0;
    const bool as_expected = passed == expect_pass;
    mismatches += as_expected ? 0 : 1;
    std::printf("%s %s (%s): %s, %llu partition checks, %zu failed checks\n",
                as_expected ? "ok  " : "FAIL", c.workload, c.what,
                expect_pass ? "expected to pass" : "expected to be caught",
                static_cast<unsigned long long>(result.partition_checked),
                result.violations.size());
    for (const std::string& violation : result.violations) {
      std::printf("       %s\n", violation.c_str());
    }
  }
  std::printf("selftest: %s\n", mismatches == 0 ? "PASS" : "FAIL");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::SelfTest();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      seconds = *end == '\0' ? seconds : 0.0;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(workload_name);
  if (workload == nullptr) {
    return Usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (!have_seed || seconds <= 0.0 || seconds > 60.0 || trace < 0) {
    return Usage("need --seed N, --seconds S in (0, 60] and --trace 0|1");
  }
  if (!perfbench::FitsThreadBudget(*workload)) {
    return 3;
  }
  return perfbench::RunMeasured(*workload, seed, seconds, trace == 1);
}
