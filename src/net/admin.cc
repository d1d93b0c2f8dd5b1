#include "net/admin.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/logging.h"

namespace pldp {
namespace net {

namespace {

/// Ceiling on one admin request's header bytes; a scrape request is ~100.
constexpr size_t kMaxRequestBytes = 8 * 1024;

const char* PhaseName(uint8_t phase) {
  switch (phase) {
    case 0:
      return "collecting_specs";
    case 1:
      return "collecting_reports";
    case 2:
      return "published";
    case 3:
      return "sealing";
  }
  return "unknown";
}

std::string HttpResponseFor(int code, const char* reason,
                            const std::string& content_type,
                            const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.1 " << code << " " << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // timeout or dead peer: the scrape is best-effort
  }
}

}  // namespace

std::string RenderStatusJson(const StatsBody& stats) {
  std::ostringstream out;
  obs::JsonWriter writer(&out);
  writer.BeginObject();
  writer.Field("schema", "pldp.status/1");
  writer.Field("phase", PhaseName(stats.phase));
  writer.Field("draining", stats.draining != 0);
  writer.Field("uptime_ms", stats.uptime_ms);
  writer.Key("epoch");
  writer.BeginObject();
  writer.Field("cohort_size", stats.cohort_size);
  writer.Field("spec_responders", stats.spec_responders);
  writer.Field("num_clusters", stats.num_clusters);
  writer.Field("published_cells", stats.published_cells);
  writer.Field("specs_accepted", stats.specs_accepted);
  writer.Field("specs_duplicate", stats.specs_duplicate);
  writer.Field("specs_invalid", stats.specs_invalid);
  writer.Field("reports_staged", stats.reports_staged);
  writer.Field("reports_folded", stats.reports_folded);
  writer.Field("reports_duplicate", stats.reports_duplicate);
  writer.Field("reports_shed", stats.reports_shed);
  writer.Field("late_frames", stats.late_frames);
  writer.Field("unknown_user_frames", stats.unknown_user_frames);
  writer.Field("wrong_phase_frames", stats.wrong_phase_frames);
  writer.Field("restored_reports", stats.restored_reports);
  writer.Field("checkpoints_written", stats.checkpoints_written);
  writer.EndObject();
  writer.Key("sockets");
  writer.BeginObject();
  writer.Field("connections_accepted", stats.connections_accepted);
  writer.Field("connections_closed", stats.connections_closed);
  writer.Field("frames_received", stats.frames_received);
  writer.Field("frames_sent", stats.frames_sent);
  writer.Field("bytes_received", stats.bytes_received);
  writer.Field("bytes_sent", stats.bytes_sent);
  writer.Field("frame_errors", stats.frame_errors);
  writer.EndObject();
  const auto& recorder = obs::FlightRecorder::Global();
  writer.Key("flight_recorder");
  writer.BeginObject();
  writer.Field("enabled", recorder.enabled());
  writer.Field("recorded", recorder.recorded());
  writer.Field("overwritten", recorder.overwritten());
  writer.EndObject();
  writer.EndObject();
  return out.str();
}

AdminServer::AdminServer(AdminServerOptions options,
                         std::function<std::string()> provider)
    : options_(std::move(options)), provider_(std::move(provider)) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("admin server is already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad admin bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("admin listen: " + err);
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void AdminServer::Stop() {
  if (!running_.load(std::memory_order_acquire) && !thread_.joinable() &&
      listen_fd_ < 0) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void AdminServer::ServeLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // timeout: re-check the stopping flag
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN
      ServeOne(fd);
      ::close(fd);
    }
  }
}

void AdminServer::ServeOne(int fd) {
  // A stalled admin client must not wedge the daemon: short read/write
  // timeouts bound the worst case to a delayed next scrape.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      request.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // closed or timed out
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string line = request.substr(0, line_end);
  // Request line: METHOD SP target SP version.
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    SendAll(fd, HttpResponseFor(400, "Bad Request", "text/plain",
                                "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (method != "GET") {
    SendAll(fd, HttpResponseFor(405, "Method Not Allowed", "text/plain",
                                "only GET is served\n"));
    return;
  }
  if (target == "/metrics") {
    SendAll(fd, HttpResponseFor(
                    200, "OK", "text/plain; version=0.0.4",
                    obs::MetricsToPrometheusText(
                        obs::MetricsRegistry::Global().Snapshot())));
    return;
  }
  if (target == "/status" || target == "/statusz") {
    SendAll(fd, HttpResponseFor(200, "OK", "application/json",
                                provider_ ? provider_() : "{}"));
    return;
  }
  if (target == "/") {
    SendAll(fd, HttpResponseFor(200, "OK", "text/plain",
                                "pldp admin endpoint\n"
                                "  /metrics  Prometheus 0.0.4 text\n"
                                "  /status   live status JSON\n"));
    return;
  }
  SendAll(fd,
          HttpResponseFor(404, "Not Found", "text/plain", "unknown route\n"));
}

StatusOr<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                               const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + err);
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  SendAll(fd, request);
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    return Status::InvalidArgument("truncated http response");
  }
  const std::string status_line = raw.substr(0, line_end);
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos) {
    return Status::InvalidArgument("malformed http status line");
  }
  HttpResponse response;
  response.status_code =
      static_cast<int>(std::strtol(status_line.c_str() + sp1 + 1, nullptr,
                                   10));
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::InvalidArgument("http response missing header terminator");
  }
  response.body = raw.substr(header_end + 4);
  return response;
}

}  // namespace net
}  // namespace pldp
