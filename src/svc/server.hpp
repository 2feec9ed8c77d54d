// MissionServer / MissionClient: the socket transport over MissionService.
//
// The server listens on an AF_UNIX stream socket and speaks the protocol of
// svc/protocol.hpp (JSON lines or "WRB1" binary, per connection, detected
// from the first byte).  Each connection gets a lightweight reader thread
// that ends, and is joined, once its connection closes; the mission work
// itself still runs on the service's shared pool — the reader threads only
// block in submit(), so concurrency is governed by the service's admission
// control, not by connection count.
//
// stop() shuts the listener down, force-closes live connections and joins
// every reader thread; the service drains separately (the server never owns
// the service).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace wrsn::svc {

/// Buffered reads of one stream socket, for both framings.  One recv
/// usually brings a whole line or frame; bytes past the current message stay
/// buffered for the next call.  A returned view lives until the next call.
class StreamReader {
 public:
  explicit StreamReader(int fd) : fd_(fd) {}

  /// The first `n` unread bytes, received as needed but not consumed.
  bool peek(std::size_t n, std::string_view& bytes);
  void consume(std::size_t n) { head_ += n; }
  /// The next line without its '\n'.  False on EOF or error first, or once
  /// more than kMaxFrameBytes arrive without a newline.
  bool next_line(std::string_view& line);
  /// The next frame's payload (u32 LE size prefix, then payload).  False on
  /// EOF or error first, or as soon as a prefix exceeds kMaxFrameBytes.
  bool next_frame(std::string_view& payload);

 private:
  /// Drops the consumed bytes and appends one recv's worth.
  bool fill();
  std::size_t unread() const { return buffer_.size() - head_; }

  int fd_;
  std::string buffer_;
  std::size_t head_ = 0;  ///< bytes of buffer_ already consumed
};

class MissionServer {
 public:
  /// Binds and listens on `socket_path` (unlinking any stale socket file).
  /// Throws std::runtime_error on bind/listen failure.
  MissionServer(MissionService& service, std::string socket_path);
  ~MissionServer();

  MissionServer(const MissionServer&) = delete;
  MissionServer& operator=(const MissionServer&) = delete;

  /// Starts the accept loop on a background thread.
  void start();
  /// Stops accepting, force-closes live connections, joins all threads,
  /// and unlinks the socket file.  Idempotent.
  void stop();

  const std::string& socket_path() const { return socket_path_; }
  /// Total connections ever accepted.
  std::uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int fd);
  void serve_json(int fd, StreamReader& reader);
  void serve_binary(int fd, StreamReader& reader);

  MissionService& service_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> connections_{0};

  struct Connection {
    int fd;
    std::thread thread;
  };

  std::mutex conn_m_;  ///< guards conns_ / last_finished_
  /// Notified, under conn_m_, each time a connection closes.
  std::condition_variable conn_closed_;
  /// Open connections.  A connection's thread closes its fd and leaves this
  /// list in one critical section, so stop() never shuts down a reused fd.
  std::vector<Connection> conns_;
  /// The thread of the connection that closed last.  Each closing
  /// connection joins its predecessor's thread, so at most one finished
  /// thread is ever unjoined; stop() joins it.
  std::thread last_finished_;
};

/// Blocking single-connection client.  One in-flight call at a time; the
/// wire id is assigned internally and checked on the reply.
class MissionClient {
 public:
  /// Connects to `socket_path`; binary mode sends the "WRB1" magic first.
  /// Throws std::runtime_error on connect failure.
  explicit MissionClient(const std::string& socket_path, bool binary = false);
  ~MissionClient();

  MissionClient(const MissionClient&) = delete;
  MissionClient& operator=(const MissionClient&) = delete;

  /// Round-trips one request.  Throws std::runtime_error on transport or
  /// decode errors (a well-behaved server never triggers these).
  MissionResponse call(std::uint64_t tenant, const std::string& repro);

  bool binary() const { return binary_; }

 private:
  int fd_ = -1;
  bool binary_ = false;
  std::uint64_t next_id_ = 1;
  StreamReader reader_;
  std::string send_buffer_;
};

}  // namespace wrsn::svc
