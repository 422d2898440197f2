#include "perfbench/harness.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/cacheline.h"
#include "src/common/cycles.h"
#include "src/common/logging.h"
#include "src/runtime/instrument.h"

namespace perfbench {

void WorkloadResult::Fail(const std::string& why, std::uint64_t count) {
  if (count == 0) {
    return;
  }
  failed += count;
  violations.push_back(why + " (x" + std::to_string(count) + ")");
}

double WarmupSeconds(double seconds) { return std::min(1.0, 0.1 * seconds); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>((values.size() - 1) / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

ClientWindows::ClientWindows(std::uint64_t w0_tsc, double seconds, std::vector<double> demand_us,
                             std::vector<bool> latency_classes)
    : w0_tsc_(w0_tsc),
      window_tsc_(static_cast<std::uint64_t>(kWindowSeconds * 1e9 * TscGhz())),
      stall_tsc_(static_cast<std::uint64_t>(kStallSeconds * 1e9 * TscGhz())),
      demand_us_(std::move(demand_us)),
      latency_classes_(std::move(latency_classes)),
      by_class_(demand_us_.size()),
      next_boundary_tsc_(w0_tsc) {
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds / kWindowSeconds)));
  completions_.assign(windows, 0);
  latency_.resize(windows);
  slowdown_.resize(windows);
  steal_.assign(windows, 0.0);
}

std::size_t ClientWindows::WindowOf(std::uint64_t tsc) const {
  return tsc < w0_tsc_ ? completions_.size()
                       : static_cast<std::size_t>((tsc - w0_tsc_) / window_tsc_);
}

void ClientWindows::Tick(std::uint64_t now) {
  if (now < next_boundary_tsc_) {
    return;
  }
  // The first call at or past w0 only starts the meter.
  if (next_boundary_tsc_ > w0_tsc_) {
    const double steal = steal_meter_.StealRatioSinceStart();
    const std::size_t ended = std::min(WindowOf(now), steal_.size());
    for (; steal_sampled_ < ended; ++steal_sampled_) {
      steal_[steal_sampled_] = steal;
    }
  }
  steal_meter_.Restart();
  next_boundary_tsc_ = w0_tsc_ + (WindowOf(now) + 1) * window_tsc_;
}

void ClientWindows::Complete(std::uint64_t t_seen) {
  Tick(t_seen);
  const std::size_t w = WindowOf(t_seen);
  if (w < completions_.size()) {
    ++completions_[w];
    if (last_completion_tsc_ >= w0_tsc_ && t_seen - last_completion_tsc_ > stall_tsc_) {
      stalled_tsc_ += t_seen - last_completion_tsc_;
    }
  }
  last_completion_tsc_ = t_seen;
}

void ClientWindows::Add(std::uint64_t t_send, std::size_t request_class, double us) {
  by_class_[request_class].Record(us);
  const std::size_t w = WindowOf(t_send);
  if (w < completions_.size()) {
    if (latency_classes_[request_class]) {
      latency_[w].Record(us);
    }
    slowdown_[w].Record(us / demand_us_[request_class]);
  }
}

void ClientWindows::Report(WorkloadResult* result) const {
  // Sub-windows in which the host stole no more CPU than in the least-stolen
  // tenth of them (on a quiet host, all of them). Under contention the
  // throughput of a sub-window falls with its steal, so a looser cut lets
  // the host's load into the figures.
  std::vector<double> sorted_steal = steal_;
  std::sort(sorted_steal.begin(), sorted_steal.end());
  const double steal_limit = sorted_steal[(sorted_steal.size() - 1) / 10];

  std::vector<double> rps;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  std::vector<double> s50;
  std::vector<double> s90;
  for (std::size_t w = 0; w < completions_.size(); ++w) {
    if (steal_[w] > steal_limit) {
      continue;
    }
    rps.push_back(static_cast<double>(completions_[w]) / kWindowSeconds);
    // A sub-window no request was sent in has no latency to report; its
    // zero throughput still counts.
    if (latency_[w].Count() > 0) {
      p50.push_back(latency_[w].Quantile(0.5));
      p90.push_back(latency_[w].Quantile(0.9));
      p99.push_back(latency_[w].Quantile(0.99));
    }
    if (slowdown_[w].Count() > 0) {
      s50.push_back(slowdown_[w].Quantile(0.5));
      s90.push_back(slowdown_[w].Quantile(0.9));
    }
  }

  for (std::size_t c = 0; c < by_class_.size(); ++c) {
    result->notes.emplace_back(
        "class" + std::to_string(c),
        "n=" + std::to_string(by_class_[c].Count()) +
            " p50_us=" + std::to_string(by_class_[c].Quantile(0.5)) +
            " p99_us=" + std::to_string(by_class_[c].Quantile(0.99)) +
            " demand_us=" + std::to_string(demand_us_[c]));
  }
  result->notes.emplace_back("windows_used", std::to_string(rps.size()) + "/" +
                                                 std::to_string(completions_.size()) +
                                                 " steal<=" + std::to_string(steal_limit));
  result->throughput_rps = Median(rps);
  result->latency_p99_us = Median(p99);
  result->stall_share = static_cast<double>(stalled_tsc_) /
                        static_cast<double>(window_tsc_ * completions_.size());
  result->notes.emplace_back("stall_share", std::to_string(result->stall_share));
  result->end_to_end.push_back({"latency_p50_us", Median(p50), "us"});
  result->end_to_end.push_back({"latency_p90_us", Median(p90), "us"});
  result->end_to_end.push_back({"slowdown_p50", Median(s50), "ratio"});
  result->end_to_end.push_back({"slowdown_p90", Median(s90), "ratio"});
}

RuntimeCounters RuntimeCounters::FromTelemetry(
    const concord::telemetry::TelemetrySnapshot& before,
    const concord::telemetry::TelemetrySnapshot& after) {
  const concord::telemetry::TelemetrySnapshot diff =
      concord::telemetry::TelemetrySnapshot::Diff(before, after);
  const concord::telemetry::WorkerSnapshot totals = diff.Totals();
  const double completed = static_cast<double>(diff.RequestsCompleted());
  const double started =
      static_cast<double>(totals.requests_started + diff.dispatcher.requests_started);
  RuntimeCounters counters;
  counters.ingress_rejected = static_cast<double>(diff.dispatcher.ingress_rejected);
  counters.preempt_per_req =
      completed > 0 ? static_cast<double>(totals.probe_yields) / completed : 0.0;
  counters.preempt_honored_ratio =
      totals.preemptions_requested > 0
          ? static_cast<double>(totals.probe_yields) /
                static_cast<double>(totals.preemptions_requested)
          : 0.0;
  counters.self_run_share =
      started > 0 ? static_cast<double>(diff.dispatcher.requests_started) / started : 0.0;
  return counters;
}

void ReportPerLayer(const SpanSet& spans, const RuntimeCounters& runtime, const NetCounters& net,
                    WorkloadResult* result) {
  const double run_long_p50 = spans.Quantile(Span::kRunC1, 0.5);
  result->notes.emplace_back("steal_ratio", std::to_string(runtime.steal_ratio));
  result->per_layer = {
      {"runtime.ingress.submit_ns_p50", spans.Quantile(Span::kSubmitNs, 0.5), "ns"},
      {"runtime.ingress.submit_ns_p99", spans.Quantile(Span::kSubmitNs, 0.99), "ns"},
      {"runtime.ingress.rejected", runtime.ingress_rejected, "count"},
      {"runtime.dispatch.wait_us_p50", spans.Quantile(Span::kDispatchWait, 0.5), "us"},
      {"runtime.dispatch.wait_us_p99", spans.Quantile(Span::kDispatchWait, 0.99), "us"},
      {"runtime.dispatch.self_run_share", runtime.self_run_share, "ratio"},
      {"runtime.completion.wait_us_p50", spans.Quantile(Span::kCompletionWait, 0.5), "us"},
      {"runtime.completion.wait_us_p99", spans.Quantile(Span::kCompletionWait, 0.99), "us"},
      {"runtime.worker.run_us_p50.c0", spans.Quantile(Span::kRunC0, 0.5), "us"},
      {"runtime.worker.run_us_p50.c1", run_long_p50, "us"},
      {"runtime.worker.stretch_long",
       runtime.long_demand_us > 0.0 ? run_long_p50 / runtime.long_demand_us : 0.0, "ratio"},
      {"runtime.worker.preempt_per_req", runtime.preempt_per_req, "count"},
      {"runtime.worker.preempt_honored_ratio", runtime.preempt_honored_ratio, "ratio"},
      {"client.pickup_us_p50", spans.Quantile(Span::kPickup, 0.5), "us"},
      {"net.send_us_p50", spans.Quantile(Span::kNetSend, 0.5), "us"},
      {"net.inbound_us_p50", spans.Quantile(Span::kNetInbound, 0.5), "us"},
      {"net.outbound_us_p50", spans.Quantile(Span::kNetOutbound, 0.5), "us"},
      {"net.wire_us_p50", spans.Quantile(Span::kNetWire, 0.5), "us"},
      {"net.wire_us_p99", spans.Quantile(Span::kNetWire, 0.99), "us"},
      {"net.loop_cpu_us_per_req", net.loop_cpu_us_per_req, "us"},
      {"net.loop_sys_share", net.loop_sys_share, "ratio"},
      {"net.loop_wakeups_per_req", net.loop_wakeups_per_req, "count"},
      {"net.rejects_busy", net.rejects_busy, "count"},
      {"net.rejects_backpressure", net.rejects_backpressure, "count"},
      {"kvstore.get_us_p50", spans.Quantile(Span::kKvGet, 0.5), "us"},
      {"kvstore.put_us_p50", spans.Quantile(Span::kKvPut, 0.5), "us"},
      {"client.stall_share", result->stall_share, "ratio"},
      {"host.steal_ratio", runtime.steal_ratio, "ratio"},
      {"host.work_rate", runtime.work_rate, "1/us"},
  };
}

bool ExactlyOnce::Mark(std::uint64_t id) {
  const std::size_t word = id / 64;
  if (word >= bits_.size()) {
    bits_.resize(std::max(word + 1, bits_.size() * 2), 0);
  }
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  if ((bits_[word] & bit) != 0) {
    return false;
  }
  bits_[word] |= bit;
  return true;
}

bool ExactlyOnce::Seen(std::uint64_t id) const {
  const std::size_t word = id / 64;
  return word < bits_.size() && (bits_[word] & (std::uint64_t{1} << (id % 64))) != 0;
}

void StealMeter::Sample(std::uint64_t* steal, std::uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  *steal = 0;
  *total = 0;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    *total += field;
    if (i == 7) {
      *steal = field;
    }
  }
}

double StealMeter::StealRatioSinceStart() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  Sample(&steal, &total);
  const std::uint64_t d_total = total - total_;
  return d_total == 0 ? 0.0
                      : static_cast<double>(steal - steal_) / static_cast<double>(d_total);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      tids.push_back(std::atoi(entry->d_name));
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

ThreadCpu ThreadCpu::Read(int tid) {
  ThreadCpu cpu;
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    in >> cpu.cpu_ns;
  }
  {
    std::ifstream in(base + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime 14 and stime 15.
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 2));
      std::string value;
      for (int field = 3; field <= 15 && (fields >> value); ++field) {
        if (field == 14) {
          cpu.user_ticks = std::strtoull(value.c_str(), nullptr, 10);
        } else if (field == 15) {
          cpu.system_ticks = std::strtoull(value.c_str(), nullptr, 10);
        }
      }
    }
  }
  {
    std::ifstream in(base + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        cpu.voluntary_switches = std::strtoull(line.c_str() + 24, nullptr, 10);
      }
    }
  }
  return cpu;
}

namespace {
double tsc_ghz = 0.0;
}  // namespace

void SetTscGhz(double ghz) { tsc_ghz = ghz; }

double TscGhz() {
  CONCORD_CHECK(tsc_ghz > 0.0) << "TscGhz() before a runtime was started";
  return tsc_ghz;
}

double TscToUs(std::uint64_t ticks) { return static_cast<double>(ticks) / (1000.0 * TscGhz()); }

namespace fixed_work {

std::uint64_t Run(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed;
  std::uint64_t i = 0;
  while (i < iterations) {
    const std::uint64_t block_end = std::min(iterations, i + kProbeEvery);
    for (; i < block_end; ++i) {
      x ^= x >> 29;
      x = x * 0x9E3779B97F4A7C15ULL + i;
    }
    CONCORD_PROBE_LOOP_BACKEDGE();
  }
  return x;
}

double MeasureRate() {
  constexpr std::uint64_t kTrialIterations = 1 << 15;
  constexpr int kTrials = 2000;
  std::vector<double> rates;
  std::uint64_t sink = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    sink += Run(kTrialIterations, static_cast<std::uint64_t>(trial));
    const std::chrono::duration<double, std::micro> took =
        std::chrono::steady_clock::now() - start;
    rates.push_back(static_cast<double>(kTrialIterations) / took.count());
  }
  // Keeps the trials observable so they are not optimised away.
  if (sink == 42) {
    std::fprintf(stderr, "work sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return Median(rates);
}

}  // namespace fixed_work

}  // namespace perfbench
