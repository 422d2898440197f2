// kv-wire: loopback RPC into the key-value store. One client thread drives
// kConnections connections with kDepth requests outstanding on each
// (closed loop), 90% GET / 10% PUT over uniformly chosen keys.
//
// Responses carry no payload on this wire protocol, so the handler publishes
// what a GET read into a per-slot result record (the slot is fixed by the
// request id); the client checks it when the response arrives.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/cacheline.h"
#include "src/common/cycles.h"
#include "src/kvstore/db.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/runtime/policy.h"
#include "src/runtime/sharded_runtime.h"

namespace perfbench {
namespace net = concord::net;
namespace {

constexpr int kKeys = 15000;
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kValueWords = kValueBytes / 8;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 4;
constexpr std::size_t kSlots = kConnections * kDepth;
constexpr std::uint8_t kGet = 0;
constexpr std::uint8_t kPut = 1;
constexpr int kPutPercent = 10;

// Declared demand per class, the slowdown denominator: the handler's time
// (key formatting plus Db::Get or Db::Put) measured once on the reference
// host (a 4-vCPU Sapphire Rapids KVM guest) as the traced
// runtime.worker.run_us_p50.c0 and .c1.
constexpr double kGetDemandUs = 3.4;
constexpr double kPutDemandUs = 4.2;

// Request payload: little-endian u32 key index, then the value for a PUT.
constexpr std::size_t kKeyBytes = 4;

std::string KeyName(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%08u", key);
  return buf;
}

// PopulateDb's value.
std::array<char, kValueBytes> InitialValue() {
  std::array<char, kValueBytes> value;
  value.fill('v');
  return value;
}

// The value PUT `id` writes to `key`: both are encoded, so a GET can name
// the PUT whose value it saw, and the filler detects torn or foreign bytes.
std::array<char, kValueBytes> PutValue(std::uint32_t key, std::uint64_t id) {
  std::array<char, kValueBytes> value;
  char head[32];
  const int len = std::snprintf(head, sizeof(head), "p%08u:%016llx:", key,
                                static_cast<unsigned long long>(id));
  std::memcpy(value.data(), head, static_cast<std::size_t>(len));
  for (std::size_t i = static_cast<std::size_t>(len); i < kValueBytes; ++i) {
    value[i] = static_cast<char>('a' + (id + i) % 26);
  }
  return value;
}

// Parses the PUT id out of a PutValue-shaped value (any bytes otherwise).
std::uint64_t PutIdOf(const std::array<char, kValueBytes>& value) {
  return std::strtoull(std::string(value.data() + 10, 16).c_str(), nullptr, 16);
}

// What the handler saw, published per slot. Every field is atomic because
// the client reads it on another thread, ordered only by the socket.
struct alignas(concord::kCacheLineSize) KvResult {
  std::atomic<std::uint64_t> id{~std::uint64_t{0}};
  std::atomic<bool> found{false};
  std::array<std::atomic<std::uint64_t>, kValueWords> value{};
  std::atomic<std::uint64_t> t_entry{0};
  std::atomic<std::uint64_t> t_exit{0};
  std::atomic<std::uint64_t> t_complete{0};
  std::atomic<std::uint64_t> kv_ticks{0};
};

struct ClientSlot {
  std::uint64_t id = 0;
  std::uint8_t request_class = kGet;
  std::uint32_t key = 0;
  bool in_flight = false;
  // A PUT to the key had been acknowledged when this request was sent, so
  // a GET may no longer return the initial value.
  bool key_written_at_send = false;
  std::uint64_t t_send = 0;
  std::uint64_t t_sent = 0;
};

struct Conn {
  int fd = -1;
  net::FrameParser parser{0};
};

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int one = 1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one whole frame on a non-blocking socket (retrying on a full send
// buffer, which 16 small outstanding requests never fill in practice).
bool SendAll(int fd, const unsigned char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t sent = ::send(fd, data, len, MSG_NOSIGNAL);
    if (sent > 0) {
      data += sent;
      len -= static_cast<std::size_t>(sent);
    } else if (sent < 0 && (errno == EAGAIN || errno == EINTR)) {
      concord::CpuRelax();
    } else {
      return false;
    }
  }
  return true;
}

// One populated store behind one runtime and one RPC server.
struct Stack {
  std::unique_ptr<concord::Db> db;
  std::unique_ptr<net::RpcServer> server;
  std::unique_ptr<concord::ShardedRuntime> runtime;

  void Stop() {
    if (server != nullptr) {
      server->Stop();
    }
    if (runtime != nullptr) {
      runtime->Shutdown();
    }
  }
  // The runtime goes first: the server's sink must outlive its shutdown.
  void Reset() {
    Stop();
    runtime.reset();
    server.reset();
    db.reset();
  }
};

}  // namespace

WorkloadResult RunKvWire(const RunConfig& config) {
  WorkloadResult result;
  const bool traced = config.traced;
  const bool skip_put = config.fault == Fault::kSkipPut;
  std::array<KvResult, kSlots> results;
  concord::Db* db = nullptr;

  concord::Runtime::Callbacks callbacks;
  callbacks.handle_request = [&](const concord::RequestView& view) {
    const std::uint64_t t_entry = traced ? concord::ReadTsc() : 0;
    KvResult& out = results[view.id % kSlots];
    const unsigned char* bytes = net::RequestBytes(view);
    const std::uint32_t len = net::RequestLen(view);
    const std::string name = KeyName(len >= kKeyBytes ? net::internal::LoadLe32(bytes) : 0);
    std::string value;
    bool ok = false;
    const std::uint64_t t_kv = traced ? concord::ReadTsc() : 0;
    if (view.request_class == kGet) {
      ok = db->Get(concord::Slice(name), &value) && value.size() == kValueBytes;
    } else if (len == kKeyBytes + kValueBytes) {
      if (!skip_put) {
        db->Put(concord::Slice(name),
                concord::Slice(reinterpret_cast<const char*>(bytes + kKeyBytes), kValueBytes));
      }
      ok = true;
    }
    out.kv_ticks.store(traced ? concord::ReadTsc() - t_kv : 0, std::memory_order_relaxed);
    if (view.request_class == kGet && ok) {
      for (std::size_t i = 0; i < kValueWords; ++i) {
        std::uint64_t word = 0;
        std::memcpy(&word, value.data() + 8 * i, 8);
        out.value[i].store(word, std::memory_order_relaxed);
      }
    }
    out.found.store(ok, std::memory_order_relaxed);
    out.t_entry.store(t_entry, std::memory_order_relaxed);
    out.t_exit.store(traced ? concord::ReadTsc() : 0, std::memory_order_relaxed);
    out.id.store(view.id, std::memory_order_release);
  };
  callbacks.on_complete = [&](const concord::RequestView& view, std::uint64_t) {
    if (traced) {
      results[view.id % kSlots].t_complete.store(concord::ReadTsc(), std::memory_order_release);
    }
  };

  concord::ShardedRuntime::Options options;
  options.shard.worker_count = 1;
  options.shard.quantum_us = 5.0;
  options.shard.policy = concord::PolicyKind::kConcordJbsq;
  options.shard_count = 1;

  std::vector<double> setup_times;
  Stack stack;
  std::vector<int> tids_before;
  for (int i = 0; i < config.setup_repeats; ++i) {
    stack.Reset();
    const auto start = std::chrono::steady_clock::now();
    stack.db = std::make_unique<concord::Db>();
    db = stack.db.get();
    concord::PopulateDb(db, kKeys, kValueBytes);
    stack.server = std::make_unique<net::RpcServer>(net::RpcServerOptions{});
    callbacks.completion_sink = stack.server->sink();
    stack.runtime = std::make_unique<concord::ShardedRuntime>(options, callbacks);
    stack.runtime->Start();
    tids_before = ThreadIds();
    if (!stack.server->Start(stack.runtime.get())) {
      stack.Stop();
      result.Fail("RpcServer::Start failed to bind a loopback port");
      return result;
    }
    setup_times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  result.setup_s = Median(setup_times);
  result.notes.emplace_back("pinned", stack.runtime->placement_plan().pinned ? "yes" : "no");

  // The event-loop thread is the one RpcServer::Start added.
  int loop_tid = -1;
  for (const int tid : ThreadIds()) {
    if (!std::binary_search(tids_before.begin(), tids_before.end(), tid)) {
      loop_tid = tid;
    }
  }

  std::array<Conn, kConnections> conns;
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  bool connected = epoll_fd >= 0;
  for (std::size_t c = 0; c < kConnections && connected; ++c) {
    conns[c].fd = ConnectLoopback(stack.server->port());
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u32 = static_cast<std::uint32_t>(c);
    connected =
        conns[c].fd >= 0 && ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[c].fd, &event) == 0;
  }
  const auto close_all = [&] {
    for (Conn& conn : conns) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
  };
  if (!connected) {
    close_all();
    stack.Stop();
    result.Fail("could not connect to the RPC server over loopback");
    return result;
  }

  SetTscGhz(stack.runtime->tsc_ghz());
  const double ghz = TscGhz();
  const auto ticks = [ghz](double s) { return static_cast<std::uint64_t>(s * 1e9 * ghz); };
  std::mt19937_64 rng(config.seed);
  std::uniform_int_distribution<std::uint32_t> key_dist(0, kKeys - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  std::array<ClientSlot, kSlots> slots;
  std::vector<std::uint32_t> acked_puts(kKeys, 0);
  ExactlyOnce answered;
  ExactlyOnce put_sent;
  ExactlyOnce put_acked;
  std::uint64_t next_round = 0;
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t send_errors = 0;
  int in_flight = 0;
  std::vector<unsigned char> frame;

  const auto send_request = [&](std::size_t s) {
    ClientSlot& slot = slots[s];
    slot.id = (next_round++) * kSlots + s;
    slot.request_class = percent(rng) < kPutPercent ? kPut : kGet;
    slot.key = key_dist(rng);
    slot.key_written_at_send = acked_puts[slot.key] > 0;
    net::FrameHeader header;
    header.type = net::FrameType::kRequest;
    header.request_class = slot.request_class;
    header.id = slot.id;
    unsigned char payload[kKeyBytes + kValueBytes];
    net::internal::StoreLe32(payload, slot.key);
    header.payload_len = static_cast<std::uint32_t>(kKeyBytes);
    if (slot.request_class == kPut) {
      const std::array<char, kValueBytes> value = PutValue(slot.key, slot.id);
      std::memcpy(payload + kKeyBytes, value.data(), kValueBytes);
      header.payload_len += kValueBytes;
      put_sent.Mark(slot.id);
    }
    frame.clear();
    net::AppendFrame(&frame, header, payload);
    ++result.attempted;
    slot.in_flight = true;
    slot.t_send = concord::ReadTsc();
    if (!SendAll(conns[s / kDepth].fd, frame.data(), frame.size())) {
      ++send_errors;
      slot.in_flight = false;
      return;
    }
    slot.t_sent = concord::ReadTsc();
    ++sent;
    ++in_flight;
  };

  SpanSet spans;
  const std::array<char, kValueBytes> initial = InitialValue();
  std::uint64_t bad_responses = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unpublished = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t stale_initial = 0;
  std::uint64_t foreign_values = 0;
  std::uint64_t rejects_busy = 0;
  std::uint64_t rejects_backpressure = 0;

  const StealMeter steal;
  const concord::telemetry::TelemetrySnapshot tel_before = stack.runtime->GetTelemetry();
  const ThreadCpu loop_before = ThreadCpu::Read(loop_tid);
  const std::uint64_t t_start = concord::ReadTsc();
  const std::uint64_t w0 = t_start + ticks(WarmupSeconds(config.seconds));
  const std::uint64_t w1 = w0 + ticks(config.seconds);
  const std::uint64_t give_up = w1 + ticks(kDrainSeconds);
  ClientWindows latency(w0, config.seconds, {kGetDemandUs, kPutDemandUs}, {true, true});

  const auto on_frame = [&](std::size_t conn_index, const net::DecodedFrame& f,
                            std::uint64_t t_recv) {
    const std::size_t s = static_cast<std::size_t>(f.header.id % kSlots);
    ClientSlot& slot = slots[s];
    if (s / kDepth != conn_index || !slot.in_flight || slot.id != f.header.id) {
      ++bad_responses;
      return;
    }
    if (!answered.Mark(f.header.id)) {
      ++duplicates;
      return;
    }
    slot.in_flight = false;
    --in_flight;
    if (f.header.type == net::FrameType::kReject) {
      ++(f.header.param == net::kRejectServerBusy ? rejects_busy : rejects_backpressure);
    } else if (f.header.type != net::FrameType::kResponse) {
      ++bad_responses;
    } else {
      ++responses;
      KvResult& out = results[s];
      if (out.id.load(std::memory_order_acquire) != slot.id) {
        ++unpublished;
      } else if (!out.found.load(std::memory_order_relaxed)) {
        ++get_misses;
      } else if (slot.request_class == kPut) {
        ++acked_puts[slot.key];
        put_acked.Mark(slot.id);
      } else {
        std::array<char, kValueBytes> value;
        for (std::size_t i = 0; i < kValueWords; ++i) {
          const std::uint64_t word = out.value[i].load(std::memory_order_relaxed);
          std::memcpy(value.data() + 8 * i, &word, 8);
        }
        if (value == initial) {
          stale_initial += slot.key_written_at_send ? 1 : 0;
        } else {
          const std::uint64_t put_id = PutIdOf(value);
          if (!put_sent.Seen(put_id) || value != PutValue(slot.key, put_id)) {
            ++foreign_values;
          }
        }
      }
      latency.Complete(t_recv);
      if (slot.t_send >= w0 && slot.t_send < w1) {
        const std::uint64_t rtt = t_recv - slot.t_send;
        latency.Add(slot.t_send, slot.request_class, TscToUs(rtt));
        if (traced) {
          const std::uint64_t entry = out.t_entry.load(std::memory_order_relaxed);
          // The server can reach the handler before send() returns here.
          const std::uint64_t boundary = std::min(slot.t_sent, entry);
          const std::uint64_t stamps[] = {slot.t_send,
                                          boundary,
                                          entry,
                                          out.t_exit.load(std::memory_order_relaxed),
                                          out.t_complete.load(std::memory_order_acquire),
                                          t_recv};
          if (spans.CheckPartition(stamps, &result)) {
            spans.Add(Span::kNetSend, TscToUs(boundary - slot.t_send));
            spans.Add(Span::kNetInbound, TscToUs(entry - boundary));
            spans.Add(slot.request_class == kGet ? Span::kRunC0 : Span::kRunC1,
                      TscToUs(stamps[3] - entry));
            spans.Add(Span::kCompletionWait, TscToUs(stamps[4] - stamps[3]));
            spans.Add(Span::kNetOutbound, TscToUs(t_recv - stamps[4]));
            spans.Add(slot.request_class == kGet ? Span::kKvGet : Span::kKvPut,
                      TscToUs(out.kv_ticks.load(std::memory_order_relaxed)));
            // f.header.param: the server-measured latency in ns.
            // A histogram holds no negatives; a wire time below zero would
            // be clock skew between the two stamps, and counts as zero.
            spans.Add(Span::kNetWire,
                      std::max(0.0, TscToUs(rtt) - static_cast<double>(f.header.param) / 1000.0));
          }
        }
      }
    }
    if (t_recv < w1) {
      send_request(s);
    }
  };

  for (std::size_t s = 0; s < kSlots; ++s) {
    send_request(s);
  }
  std::vector<unsigned char> buffer(64 * 1024);
  bool stream_error = false;
  while (in_flight > 0 && !stream_error) {
    const std::uint64_t now = concord::ReadTsc();
    latency.Tick(now);
    if (now >= give_up) {
      break;
    }
    epoll_event events[kConnections];
    const int ready = ::epoll_wait(epoll_fd, events, kConnections, 0);
    for (int e = 0; e < ready; ++e) {
      const std::size_t c = events[e].data.u32;
      Conn& conn = conns[c];
      while (true) {
        const ssize_t got = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
        if (got <= 0) {
          stream_error = got == 0 || (errno != EAGAIN && errno != EINTR);
          break;
        }
        const std::uint64_t t_recv = concord::ReadTsc();
        if (!conn.parser.Feed(buffer.data(), static_cast<std::size_t>(got),
                              [&](const net::DecodedFrame& f) { on_frame(c, f, t_recv); })) {
          stream_error = true;
          break;
        }
      }
    }
  }
  const double steal_ratio = steal.StealRatioSinceStart();
  const ThreadCpu loop_after = ThreadCpu::Read(loop_tid);
  const concord::telemetry::TelemetrySnapshot tel_after = stack.runtime->GetTelemetry();
  close_all();
  stack.Stop();
  const concord::telemetry::NetSnapshot net_snapshot = stack.server->Snapshot();

  result.Fail("response stream closed or malformed", stream_error ? 1 : 0);
  result.Fail("send failed", send_errors);
  result.Fail("response for an id not in flight on its connection slot", bad_responses);
  result.Fail("duplicate response", duplicates);
  result.Fail("response lost (not seen within the drain bound)",
              static_cast<std::uint64_t>(in_flight));
  result.Fail("reject frame: connection record pool empty", rejects_busy);
  result.Fail("reject frame: ingress backpressure", rejects_backpressure);
  result.Fail("handler result not published before the response", unpublished);
  result.Fail("GET missed a key that is never deleted, or a malformed PUT", get_misses);
  result.Fail("GET returned the initial value after a PUT to the key was acknowledged",
              stale_initial);
  result.Fail("GET returned a value no PUT to that key wrote", foreign_values);
  if (!stack.server->ConservationHolds()) {
    result.Fail("RpcServer conservation identities do not hold");
  }
  if (net_snapshot.frames_decoded != sent || net_snapshot.responses_written != responses ||
      net_snapshot.requests_rejected != rejects_busy + rejects_backpressure) {
    result.Fail("server counters disagree with the client (decoded " +
                std::to_string(net_snapshot.frames_decoded) + " vs sent " +
                std::to_string(sent) + ", written " +
                std::to_string(net_snapshot.responses_written) + " vs received " +
                std::to_string(responses) + ")");
  }
  // Final state: a key holds its initial value until a PUT to it is
  // acknowledged, and afterwards the value of some acknowledged PUT.
  std::uint64_t final_bad = 0;
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    std::string value;
    if (!db->Get(concord::Slice(KeyName(key)), &value) || value.size() != kValueBytes) {
      ++final_bad;
      continue;
    }
    std::array<char, kValueBytes> bytes;
    std::memcpy(bytes.data(), value.data(), kValueBytes);
    if (acked_puts[key] == 0) {
      final_bad += bytes == initial ? 0u : 1u;
    } else {
      const std::uint64_t put_id = PutIdOf(bytes);
      final_bad += put_acked.Seen(put_id) && bytes == PutValue(key, put_id) ? 0u : 1u;
    }
  }
  result.Fail("final store state: key holds neither its initial value nor an acknowledged PUT",
              final_bad);

  latency.Report(&result);

  RuntimeCounters counters = RuntimeCounters::FromTelemetry(tel_before, tel_after);
  counters.steal_ratio = steal_ratio;
  counters.work_rate = config.host_work_rate;

  NetCounters net_counters;
  const double answered_count = static_cast<double>(std::max<std::uint64_t>(responses, 1));
  net_counters.loop_cpu_us_per_req =
      static_cast<double>(loop_after.cpu_ns - loop_before.cpu_ns) / 1000.0 / answered_count;
  const double user = static_cast<double>(loop_after.user_ticks - loop_before.user_ticks);
  const double system = static_cast<double>(loop_after.system_ticks - loop_before.system_ticks);
  net_counters.loop_sys_share = user + system > 0 ? system / (user + system) : 0.0;
  net_counters.loop_wakeups_per_req =
      static_cast<double>(loop_after.voluntary_switches - loop_before.voluntary_switches) /
      answered_count;
  net_counters.rejects_busy = static_cast<double>(rejects_busy);
  net_counters.rejects_backpressure = static_cast<double>(rejects_backpressure);
  result.notes.emplace_back("event_loop_tid", std::to_string(loop_tid));
  ReportPerLayer(spans, counters, net_counters, &result);
  return result;
}

}  // namespace perfbench
