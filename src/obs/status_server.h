// StatusServer: a minimal epoll-based HTTP/1.1 introspection endpoint
// (docs/observability.md).
//
// Serves GET requests on a loopback TCP socket from a registry of path ->
// provider callbacks: /statusz (human-readable runtime status), /metricsz
// (Prometheus text exposition), and whatever else the embedding process
// registers. Design constraints, in order:
//
//   * Never perturb the scheduler. The server runs one background thread
//     around its own epoll instance; providers are plain std::functions that
//     read the same snapshot interfaces every other observer uses
//     (GetTelemetry and friends), so a request costs the dispatcher nothing
//     beyond one more GetTelemetry() on the snapshot mutex, the same read
//     each trace::MetricsSampler window makes.
//   * Stay out of the way of real HTTP stacks. This is an introspection
//     port, not a web server: HTTP/1.1, GET only, Connection: close, one
//     read per request (a GET line fits in one segment from a local curl),
//     bounded request size, no keep-alive, no TLS, loopback bind only.
//   * Deterministic lifetime. Start() binds and launches the thread (port 0
//     picks an ephemeral port, readable via port() — tests depend on it);
//     Stop() wakes the epoll via an eventfd and joins. No detached state.

#ifndef CONCORD_SRC_OBS_STATUS_SERVER_H_
#define CONCORD_SRC_OBS_STATUS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace concord::obs {

class StatusServer {
 public:
  struct Options {
    // Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    // Connections accepted but not yet completed, bounded.
    int max_connections = 16;
  };

  // Returns the response body for one GET of the registered path.
  using Provider = std::function<std::string()>;

  explicit StatusServer(Options options);
  ~StatusServer();

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  // Registers `provider` for GET <path> with the given Content-Type.
  // Call before Start(); paths must begin with '/'.
  void Handle(const std::string& path, std::string content_type, Provider provider);

  // Binds 127.0.0.1:<port> and launches the serving thread. Returns false
  // (with no thread started) when the bind/listen fails.
  bool Start();

  // Wakes the epoll loop and joins the thread. Idempotent.
  void Stop();

  // The bound port (resolved after Start() when Options::port was 0).
  std::uint16_t port() const { return port_; }

  // Requests served since Start() (any status code).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::string content_type;
    Provider provider;
  };

  void Loop();
  void HandleConnection(int fd);

  const Options options_;
  std::map<std::string, Route> routes_;  // fixed after Start()

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace concord::obs

#endif  // CONCORD_SRC_OBS_STATUS_SERVER_H_
