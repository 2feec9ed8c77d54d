#include "svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace wrsn::svc {
namespace {

// ---------------------------------------------------------------------------
// fd helpers: EINTR-safe, MSG_NOSIGNAL so a vanished peer surfaces as an
// error return instead of SIGPIPE.
// ---------------------------------------------------------------------------

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= std::size_t(n);
  }
  return true;
}

/// Sends one frame — size prefix and payload — in one send.  The prefix is
/// written in front of `payload`, which the caller re-encodes before reuse.
bool write_frame(int fd, std::string& payload) {
  const std::uint32_t size = std::uint32_t(payload.size());
  const char prefix[4] = {char(size & 0xff), char((size >> 8) & 0xff),
                          char((size >> 16) & 0xff), char((size >> 24) & 0xff)};
  payload.insert(0, prefix, sizeof(prefix));
  return write_all(fd, payload.data(), payload.size());
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path +
                             ") failed: " + std::strerror(errno));
  }
  return fd;
}

/// Serves one decoded request: parse errors become kInvalid responses with
/// the offending id echoed, never dropped connections.
WireResponse serve_request(MissionService& service, const WireRequest& wire) {
  WireResponse reply;
  reply.id = wire.id;
  try {
    const MissionRequest request = to_mission_request(wire);
    reply.response = service.submit(request);
  } catch (const std::exception&) {
    reply.response.status = MissionStatus::kInvalid;
    reply.response.route = MissionRoute::kNone;
  }
  return reply;
}

}  // namespace

bool StreamReader::fill() {
  if (head_ > 0) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, std::size_t(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // orderly EOF or error
  }
}

bool StreamReader::peek(std::size_t n, std::string_view& bytes) {
  while (unread() < n) {
    if (!fill()) return false;
  }
  bytes = std::string_view(buffer_).substr(head_, n);
  return true;
}

bool StreamReader::next_line(std::string_view& line) {
  std::size_t scanned = 0;  // unread bytes already searched for '\n'
  while (true) {
    const std::size_t nl = buffer_.find('\n', head_ + scanned);
    if (nl != std::string::npos) {
      line = std::string_view(buffer_).substr(head_, nl - head_);
      head_ = nl + 1;
      return true;
    }
    scanned = unread();
    if (scanned > kMaxFrameBytes || !fill()) return false;
  }
}

bool StreamReader::next_frame(std::string_view& payload) {
  while (true) {
    if (unread() >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(buffer_.data()) +
                      head_;
      const std::uint32_t size = std::uint32_t(p[0]) |
                                 std::uint32_t(p[1]) << 8 |
                                 std::uint32_t(p[2]) << 16 |
                                 std::uint32_t(p[3]) << 24;
      if (size > kMaxFrameBytes) return false;
      if (unread() >= 4 + std::size_t(size)) {
        payload = std::string_view(buffer_).substr(head_ + 4, size);
        head_ += 4 + std::size_t(size);
        return true;
      }
    }
    if (!fill()) return false;
  }
}

MissionServer::MissionServer(MissionService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ::unlink(socket_path_.c_str());  // stale socket from a crashed server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind/listen(" + socket_path_ +
                             ") failed: " + why);
  }
}

MissionServer::~MissionServer() { stop(); }

void MissionServer::start() {
  WRSN_REQUIRE(listen_fd_ >= 0, "server already stopped");
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  // The loop gets the fd by value: stop() closes and clears listen_fd_ only
  // after joining it.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void MissionServer::stop() {
  running_.store(false, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocked accept(); close() alone does not
    // reliably on Linux.  The fd is closed only once the loop has exited,
    // so accept() never sees a closed (or reused) fd number.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(conn_m_);
    for (const Connection& conn : conns_) ::shutdown(conn.fd, SHUT_RDWR);
    conn_closed_.wait(lock, [this] { return conns_.empty(); });
    last = std::move(last_finished_);
  }
  // Joining the last thread to finish joins them all: each one joined its
  // predecessor before it ended.
  if (last.joinable()) last.join();
  ::unlink(socket_path_.c_str());
}

void MissionServer::accept_loop(int listen_fd) {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop()
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn_m_);
    conns_.push_back({fd, std::thread([this, fd] { serve_connection(fd); })});
  }
}

void MissionServer::serve_connection(int fd) {
  // Mode detection: '{' starts a JSON line; 'W' starts the "WRB1" magic.
  // Anything else is a garbage connection: just drop it.
  StreamReader reader(fd);
  std::string_view head;
  if (reader.peek(1, head)) {
    if (head[0] == '{') {
      serve_json(fd, reader);
    } else if (head[0] == kBinaryMagic[0] &&
               reader.peek(kBinaryMagic.size(), head) && head == kBinaryMagic) {
      reader.consume(kBinaryMagic.size());
      serve_binary(fd, reader);
    }
  }
  // Close and leave conns_ in one critical section, so stop() never shuts
  // down a reused fd number.  This thread's handle becomes last_finished_,
  // and it joins the thread that was there, outside the lock.
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(conn_m_);
    ::close(fd);
    const auto it =
        std::find_if(conns_.begin(), conns_.end(),
                     [fd](const Connection& conn) { return conn.fd == fd; });
    previous = std::exchange(last_finished_, std::move(it->thread));
    conns_.erase(it);
    conn_closed_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

void MissionServer::serve_json(int fd, StreamReader& reader) {
  std::string_view line;
  std::string error;
  WireRequest wire;
  while (reader.next_line(line)) {
    if (line.empty()) continue;
    WireResponse reply;
    if (decode_request_json(line, wire, error)) {
      reply = serve_request(service_, wire);
    } else {
      reply.response.status = MissionStatus::kInvalid;
    }
    std::string out = encode_response_json(reply);
    out += '\n';
    if (!write_all(fd, out.data(), out.size())) break;
  }
}

void MissionServer::serve_binary(int fd, StreamReader& reader) {
  std::string_view payload;
  std::string out, error;
  WireRequest wire;
  while (reader.next_frame(payload)) {
    WireResponse reply;
    if (decode_request_frame(payload, wire, error)) {
      reply = serve_request(service_, wire);
    } else {
      reply.response.status = MissionStatus::kInvalid;
    }
    encode_response_frame(reply, out);
    if (!write_frame(fd, out)) break;
  }
}

MissionClient::MissionClient(const std::string& socket_path, bool binary)
    : fd_(connect_unix(socket_path)), binary_(binary), reader_(fd_) {
  if (binary_ &&
      !write_all(fd_, kBinaryMagic.data(), kBinaryMagic.size())) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("failed to send protocol magic");
  }
}

MissionClient::~MissionClient() {
  if (fd_ >= 0) ::close(fd_);
}

MissionResponse MissionClient::call(std::uint64_t tenant,
                                    const std::string& repro) {
  WireRequest wire;
  wire.id = next_id_++;
  wire.tenant = tenant;
  wire.repro = repro;

  WireResponse reply;
  std::string error;
  std::string_view received;
  if (binary_) {
    encode_request_frame(wire, send_buffer_);
    if (!write_frame(fd_, send_buffer_) || !reader_.next_frame(received) ||
        !decode_response_frame(received, reply, error)) {
      throw std::runtime_error("binary call failed: " +
                               (error.empty() ? "transport error" : error));
    }
  } else {
    send_buffer_ = encode_request_json(wire);
    send_buffer_ += '\n';
    if (!write_all(fd_, send_buffer_.data(), send_buffer_.size()) ||
        !reader_.next_line(received) ||
        !decode_response_json(received, reply, error)) {
      throw std::runtime_error("json call failed: " +
                               (error.empty() ? "transport error" : error));
    }
  }
  if (reply.id != wire.id) {
    throw std::runtime_error("response id mismatch");
  }
  return reply.response;
}

}  // namespace wrsn::svc
