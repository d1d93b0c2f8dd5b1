#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pldp {
namespace net {

namespace {

constexpr unsigned kDefaultIoThreads = 2;
constexpr unsigned kMaxIoThreads = 64;
constexpr int kEpollBatch = 64;

obs::Counter* NetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// Ingests above this threshold get a kSlowIngest flight event: an engine
/// call that held the I/O thread long enough to stall its whole epoll share,
/// or a seal that kept its connection waiting that long.
constexpr double kSlowIngestMs = 5.0;

/// Per-frame-type ingest-latency histogram, registered on first use. The
/// bounds span 1 µs .. ~130 ms exponentially — staging is O(1) and sits in
/// the lowest buckets; a seal, timed on the seal thread from its queueing
/// to its ack, lands near the top or above it.
obs::Histogram* IngestHistogram(FrameType type) {
  auto& registry = obs::MetricsRegistry::Global();
  const auto make = [&registry](const char* name) {
    return registry.GetHistogram(name, obs::ExponentialBounds(0.001, 2.0, 18));
  };
  switch (type) {
    case FrameType::kSpecUpload: {
      static obs::Histogram* h = make("net.ingest_latency_spec_upload_ms");
      return h;
    }
    case FrameType::kSealSpecs: {
      static obs::Histogram* h = make("net.ingest_latency_seal_specs_ms");
      return h;
    }
    case FrameType::kRowRequest: {
      static obs::Histogram* h = make("net.ingest_latency_row_request_ms");
      return h;
    }
    case FrameType::kReport: {
      static obs::Histogram* h = make("net.ingest_latency_report_ms");
      return h;
    }
    case FrameType::kSealEpoch: {
      static obs::Histogram* h = make("net.ingest_latency_seal_epoch_ms");
      return h;
    }
    case FrameType::kFetchEstimates: {
      static obs::Histogram* h = make("net.ingest_latency_fetch_estimates_ms");
      return h;
    }
    case FrameType::kStatsRequest: {
      static obs::Histogram* h = make("net.ingest_latency_stats_ms");
      return h;
    }
    case FrameType::kDrain: {
      static obs::Histogram* h = make("net.ingest_latency_drain_ms");
      return h;
    }
    default: {
      static obs::Histogram* h = make("net.ingest_latency_other_ms");
      return h;
    }
  }
}

/// True when a frame's ingest is timed: the clock reads only happen when
/// someone is listening (registry or recorder enabled).
bool IngestTimed() {
  return obs::MetricsRegistry::Global().enabled() ||
         obs::FlightRecorder::Global().enabled();
}

/// Books one frame's ingest time: its histogram, a frame.ingest flight
/// event, and a frame.slow one above kSlowIngestMs.
void ObserveIngest(FrameType type,
                   std::chrono::steady_clock::time_point begin) {
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - begin)
                                .count();
  IngestHistogram(type)->Observe(elapsed_ms);
  auto& recorder = obs::FlightRecorder::Global();
  if (!recorder.enabled()) return;
  recorder.Record(obs::FlightEventType::kFrame, "frame.ingest",
                  static_cast<uint64_t>(type),
                  static_cast<uint64_t>(elapsed_ms * 1000.0));
  if (elapsed_ms > kSlowIngestMs) {
    recorder.Record(obs::FlightEventType::kSlowIngest, "frame.slow",
                    static_cast<uint64_t>(type),
                    static_cast<uint64_t>(elapsed_ms * 1000.0));
  }
}

}  // namespace

unsigned ResolveIoThreads(unsigned requested) {
  unsigned threads = requested;
  if (threads == 0) {
    if (const char* env = std::getenv("PLDP_NET_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) threads = static_cast<unsigned>(parsed);
    }
  }
  if (threads == 0) threads = kDefaultIoThreads;
  if (threads > kMaxIoThreads) threads = kMaxIoThreads;
  return threads;
}

/// One accepted socket owned by exactly one I/O loop.
struct NetServer::Connection {
  Connection(int fd_in, uint64_t serial_in, uint64_t max_payload)
      : fd(fd_in),
        serial(serial_in),
        decoder(/*expect_magic=*/true, max_payload) {}

  int fd;
  /// Tells this connection from a later one that reuses its fd.
  uint64_t serial;
  FrameDecoder decoder;
  /// Pending outbound bytes: [out_consumed, out.size()) awaits the socket.
  std::vector<uint8_t> out;
  size_t out_consumed = 0;
  /// The epoll events the fd is registered for.
  uint32_t events = EPOLLIN;
  /// One of its seal frames is with the seal thread: the socket is not read
  /// and later frames wait in the decoder.
  bool paused = false;
  /// The peer sent its FIN (or reset): the socket is not read again, and the
  /// connection closes once its decoded frames are answered and `out` is
  /// written.
  bool peer_closed = false;
  /// A kEstimates frame is in `out`.
  bool estimates_queued = false;
};

/// A finished seal's reply, on its way back to the connection's loop.
struct SealAck {
  int fd;
  uint64_t serial;
  FrameType type;
  std::vector<uint8_t> body;
};

/// One epoll loop: its fds, its connections, and the transfer queues other
/// threads park newly accepted sockets and finished seals on.
struct NetServer::IoLoop {
  int epoll_fd = -1;
  int event_fd = -1;
  std::mutex mu;
  // Guarded by mu: accepted fds awaiting adoption, and the acks of finished
  // seals awaiting their connection.
  std::vector<int> pending;
  std::vector<SealAck> sealed;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

NetServer::NetServer(EpochEngine* engine, NetServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.max_frame_payload > kMaxFramePayload) {
    options_.max_frame_payload = kMaxFramePayload;
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
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
    return Status::InvalidArgument("bad bind address: " +
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
    return Status::IoError("listen: " + err);
  }

  const unsigned io_threads = ResolveIoThreads(options_.io_threads);
  loops_.clear();
  for (unsigned i = 0; i < io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      Stop();
      return Status::IoError("epoll/eventfd setup failed");
    }
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  {
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }

  draining_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    seal_stop_ = false;
  }
  seal_thread_ = std::thread([this] { SealMain(); });
  threads_.reserve(io_threads);
  for (unsigned i = 0; i < io_threads; ++i) {
    threads_.emplace_back(
        [this, i] { LoopMain(loops_[i].get(), /*is_acceptor=*/i == 0); });
  }
  PLDP_LOG(Info) << "pldp daemon listening on " << options_.bind_address
                 << ":" << port_ << " with " << io_threads
                 << " I/O thread(s)";
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.load(std::memory_order_acquire) &&
      threads_.empty() && listen_fd_ < 0) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->event_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(loop->event_fd, &one, sizeof(one));
    }
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // The seal thread signals the loops' eventfds, so it stops before they
  // close. An in-flight seal finishes; queued ones are dropped.
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    seal_stop_ = true;
    seal_queue_.clear();
  }
  seal_ready_.notify_all();
  if (seal_thread_.joinable()) seal_thread_.join();
  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->event_fd >= 0) ::close(loop->event_fd);
    for (auto& entry : loop->conns) ::close(entry.second->fd);
    for (const int fd : loop->pending) ::close(fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

StatsBody NetServer::ServiceStats() const {
  const EpochEngine::StatusView view = engine_->StatusSnapshot();
  StatsBody body;
  body.phase = static_cast<uint8_t>(view.phase);
  body.draining = draining() ? 1 : 0;
  body.uptime_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  body.cohort_size = view.cohort_size;
  body.spec_responders = view.spec_responders;
  body.num_clusters = view.num_clusters;
  body.published_cells = view.published_cells;
  body.specs_accepted = view.stats.specs_accepted;
  body.specs_duplicate = view.stats.specs_duplicate;
  body.specs_invalid = view.stats.specs_invalid;
  body.reports_staged = view.stats.reports_staged;
  body.reports_folded = view.stats.reports_folded;
  body.reports_duplicate = view.stats.reports_duplicate;
  body.reports_shed = view.stats.reports_shed;
  body.late_frames = view.stats.late_frames;
  body.unknown_user_frames = view.stats.unknown_user_frames;
  body.wrong_phase_frames = view.stats.wrong_phase_frames;
  body.restored_reports = view.stats.restored_reports;
  body.checkpoints_written = view.stats.checkpoints_written;
  body.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  body.connections_closed =
      connections_closed_.load(std::memory_order_relaxed);
  body.frames_received = frames_received_.load(std::memory_order_relaxed);
  body.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  body.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  body.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  body.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  return body;
}

void NetServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Removing the listener from loop 0's epoll set stops new accepts without
  // disturbing established connections; epoll_ctl is safe from any thread.
  if (listen_fd_ >= 0 && !loops_.empty()) {
    ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kDrain,
                                       "drain.begin");
  PLDP_LOG(Info) << "pldp daemon draining: listener closed to new connections";
}

NetServerStats NetServer::stats() const {
  NetServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_closed =
      connections_closed_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  stats.estimates_sent = estimates_sent_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::LoopMain(IoLoop* loop, bool is_acceptor) {
  epoll_event events[kEpollBatch];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop->epoll_fd, events, kEpollBatch, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      PLDP_LOG(Warning) << "epoll_wait: " << strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->event_fd) {
        uint64_t drain = 0;
        while (::read(loop->event_fd, &drain, sizeof(drain)) > 0) {
        }
        AcceptPending(loop);
        ResumeSealed(loop);
        continue;
      }
      if (is_acceptor && fd == listen_fd_) {
        while (true) {
          const int conn_fd = ::accept4(listen_fd_, nullptr, nullptr,
                                        SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (conn_fd < 0) break;  // EAGAIN, or teardown
          const int one = 1;
          ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          connections_accepted_.fetch_add(1, std::memory_order_relaxed);
          static obs::Counter* accepted = NetCounter("net.connections");
          accepted->Increment();
          IoLoop* target =
              loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                     loops_.size()]
                  .get();
          {
            std::lock_guard<std::mutex> guard(target->mu);
            target->pending.push_back(conn_fd);
          }
          if (target == loop) {
            // Own loop: adopt immediately (outside the lock — AcceptPending
            // re-locks mu).
            AcceptPending(loop);
          } else {
            const uint64_t one_signal = 1;
            [[maybe_unused]] ssize_t w = ::write(
                target->event_fd, &one_signal, sizeof(one_signal));
          }
        }
        continue;
      }
      const auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // already closed this batch
      Connection* conn = it->second.get();
      // A reset comes with EPOLLIN: the frames read before it are still
      // dispatched (their replies just fail), then the connection goes.
      bool alive = true;
      if (events[i].events & EPOLLIN) alive = HandleReadable(loop, conn);
      if (events[i].events & (EPOLLHUP | EPOLLERR)) alive = false;
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushWrites(loop, conn);
      }
      if (!alive) CloseConnection(loop, conn);
    }
  }
  // Teardown: Stop() closes the fds after the join, nothing to do here.
}

void NetServer::AcceptPending(IoLoop* loop) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> guard(loop->mu);
    adopted.swap(loop->pending);
  }
  for (const int fd : adopted) {
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    loop->conns.emplace(
        fd, std::make_unique<Connection>(
                fd, next_serial_.fetch_add(1, std::memory_order_relaxed),
                options_.max_frame_payload));
  }
}

void NetServer::ResumeSealed(IoLoop* loop) {
  std::vector<SealAck> acks;
  {
    std::lock_guard<std::mutex> guard(loop->mu);
    acks.swap(loop->sealed);
  }
  for (const SealAck& ack : acks) {
    const auto it = loop->conns.find(ack.fd);
    // The connection closed during its seal (its fd may be reused already):
    // it loses only the ack.
    if (it == loop->conns.end() || it->second->serial != ack.serial) continue;
    Connection* conn = it->second.get();
    QueueFrame(conn, ack.type, ack.body);
    conn->paused = false;
    if (!DispatchFrames(loop, conn)) CloseConnection(loop, conn);
  }
}

bool NetServer::HandleReadable(IoLoop* loop, Connection* conn) {
  static obs::Counter* rx_bytes = NetCounter("net.bytes_received");

  uint8_t buf[kIoChunk];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      rx_bytes->Increment(static_cast<uint64_t>(n));
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or a read error: the frames that came before it still count.
    conn->peer_closed = true;
    break;
  }
  return DispatchFrames(loop, conn);
}

bool NetServer::DispatchFrames(IoLoop* loop, Connection* conn) {
  static obs::Counter* rx_frames = NetCounter("net.frames_received");
  static obs::Counter* frame_errors = NetCounter("net.frame_errors");

  // Timing a frame costs two clock reads, so it only happens when someone is
  // listening. The untimed path is the default and is byte-for-byte the
  // pre-introspection dispatch.
  auto& recorder = obs::FlightRecorder::Global();
  const bool timed = IngestTimed();
  while (!conn->paused) {
    StatusOr<Frame> frame = conn->decoder.Next();
    if (frame.ok()) {
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      rx_frames->Increment();
      const auto begin =
          timed ? std::chrono::steady_clock::now()
                : std::chrono::steady_clock::time_point{};
      const bool handled = HandleFrame(loop, conn, *frame);
      // A frame that paused its connection is a seal; the seal thread
      // observes it once, queue wait included.
      if (timed && !conn->paused) ObserveIngest(frame->type, begin);
      if (!handled) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        frame_errors->Increment();
        recorder.Record(obs::FlightEventType::kPoison, "frame.violation",
                        static_cast<uint64_t>(frame->type));
        recorder.RequestDump();
        return false;
      }
      continue;
    }
    if (frame.status().code() == StatusCode::kNotFound) break;
    // Protocol violation: the decoder is poisoned, the connection dies.
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    frame_errors->Increment();
    recorder.Record(obs::FlightEventType::kPoison, "decoder.poison",
                    static_cast<uint64_t>(conn->fd));
    recorder.RequestDump();
    return false;
  }
  return FlushWrites(loop, conn);
}

bool NetServer::HandleFrame(IoLoop* loop, Connection* conn,
                            const Frame& frame) {
  const auto queue_seal = [&](uint64_t cohort_size) {
    conn->paused = true;
    {
      std::lock_guard<std::mutex> lock(seal_mu_);
      seal_queue_.push_back(SealJob{loop, conn->fd, conn->serial, frame.type,
                                    cohort_size,
                                    std::chrono::steady_clock::now()});
    }
    seal_ready_.notify_one();
  };
  switch (frame.type) {
    case FrameType::kSpecUpload: {
      const StatusOr<SpecUploadBody> body = ParseSpecUploadBody(frame.body);
      if (!body.ok()) return false;
      const SpecOutcome outcome =
          engine_->RegisterSpec(body->user_id, body->msg);
      const uint8_t accepted[1] = {(outcome == SpecOutcome::kAccepted ||
                                    outcome == SpecOutcome::kDuplicate)
                                       ? uint8_t{1}
                                       : uint8_t{0}};
      QueueFrame(conn, FrameType::kSpecAck, accepted);
      return true;
    }
    case FrameType::kSealSpecs: {
      const StatusOr<uint64_t> cohort = ParseSealSpecsBody(frame.body);
      if (!cohort.ok()) return false;
      queue_seal(*cohort);
      return true;
    }
    case FrameType::kRowRequest: {
      const StatusOr<uint64_t> user_id = ParseRowRequestBody(frame.body);
      if (!user_id.ok()) return false;
      // The row goes straight from the sign matrix into the reply; a refusal
      // appends nothing, and its frame becomes a kError instead.
      const size_t reply = BeginFrame(&conn->out, FrameType::kRowAssignment);
      const Status assigned = engine_->AppendAssignment(*user_id, &conn->out);
      if (!assigned.ok()) {
        conn->out.resize(reply);
        QueueError(conn, assigned);
        return true;
      }
      EndReply(conn, reply);
      return true;
    }
    case FrameType::kReport: {
      const StatusOr<ReportBody> body = ParseReportBody(frame.body);
      if (!body.ok()) return false;
      const uint8_t outcome[1] = {static_cast<uint8_t>(
          engine_->SubmitReport(body->user_id, body->msg))};
      QueueFrame(conn, FrameType::kReportAck, outcome);
      return true;
    }
    case FrameType::kSealEpoch:
      queue_seal(0);
      return true;
    case FrameType::kFetchEstimates: {
      if (engine_->phase() != EpochEngine::Phase::kPublished) {
        QueueError(conn, Status::FailedPrecondition(
                             "estimates are published after seal_epoch"));
        return true;
      }
      const size_t reply = BeginFrame(&conn->out, FrameType::kEstimates);
      AppendEstimatesBody(&conn->out, engine_->published());
      EndReply(conn, reply);
      conn->estimates_queued = true;
      return true;
    }
    case FrameType::kStatsRequest: {
      // Control plane: answered straight from the epoll thread with one
      // short engine-lock snapshot plus relaxed atomic reads. No seal holds
      // that lock across its work and the fold path is never touched, so a
      // stats poll answers during a seal and cannot perturb results.
      if (!frame.body.empty()) return false;
      const size_t reply = BeginFrame(&conn->out, FrameType::kStatsResponse);
      AppendStatsBody(&conn->out, ServiceStats());
      EndReply(conn, reply);
      return true;
    }
    case FrameType::kDrain: {
      if (!frame.body.empty()) return false;
      BeginDrain();
      const uint8_t draining[1] = {1};
      QueueFrame(conn, FrameType::kDrainAck, draining);
      return true;
    }
    default:
      // Server-bound streams never carry ack/error frames; receiving one is
      // a protocol violation, same as a CRC mismatch.
      return false;
  }
}

void NetServer::EndReply(Connection* conn, size_t frame) {
  static obs::Counter* tx_frames = NetCounter("net.frames_sent");
  EndFrame(&conn->out, frame);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  tx_frames->Increment();
}

void NetServer::QueueFrame(Connection* conn, FrameType type,
                           std::span<const uint8_t> body) {
  const size_t frame = BeginFrame(&conn->out, type);
  conn->out.insert(conn->out.end(), body.begin(), body.end());
  EndReply(conn, frame);
}

void NetServer::QueueError(Connection* conn, const Status& status) {
  const size_t frame = BeginFrame(&conn->out, FrameType::kError);
  AppendErrorBody(&conn->out, status);
  EndReply(conn, frame);
}

bool NetServer::FlushWrites(IoLoop* loop, Connection* conn) {
  static obs::Counter* tx_bytes = NetCounter("net.bytes_sent");
  while (conn->out_consumed < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that closed without reading must not raise
    // SIGPIPE in the daemon's process.
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_consumed,
               conn->out.size() - conn->out_consumed, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_sent_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      tx_bytes->Increment(static_cast<uint64_t>(n));
      conn->out_consumed += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn->out_consumed == conn->out.size()) {
    conn->out.clear();
    conn->out_consumed = 0;
    if (conn->estimates_queued) {
      conn->estimates_queued = false;
      estimates_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    // A half-closed peer has had every answer: the connection is done.
    if (conn->peer_closed && !conn->paused) return false;
  }
  UpdateInterest(loop, conn);
  return true;
}

void NetServer::UpdateInterest(IoLoop* loop, Connection* conn) {
  // Epoll here is level-triggered: a paused connection that kept EPOLLIN
  // would wake the loop for its unread bytes on every epoll_wait, and a
  // half-closed one for its EOF.
  const uint32_t events =
      (conn->paused || conn->peer_closed ? 0u
                                         : static_cast<uint32_t>(EPOLLIN)) |
      (conn->out.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  if (events == conn->events) return;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = events;
}

void NetServer::CloseConnection(IoLoop* loop, Connection* conn) {
  static obs::Counter* closed = NetCounter("net.connections_closed");
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  closed->Increment();
  loop->conns.erase(conn->fd);
}

void NetServer::SealMain() {
  while (true) {
    SealJob job;
    {
      std::unique_lock<std::mutex> lock(seal_mu_);
      seal_ready_.wait(lock,
                       [this] { return seal_stop_ || !seal_queue_.empty(); });
      if (seal_stop_) return;
      job = seal_queue_.front();
      seal_queue_.pop_front();
    }
    SealAck ack{job.fd, job.serial, FrameType::kError, {}};
    Status sealed;
    if (job.type == FrameType::kSealSpecs) {
      sealed = engine_->SealSpecs(job.cohort_size);
      if (sealed.ok()) {
        ack.type = FrameType::kSealSpecsAck;
        ack.body = EncodeSealSpecsAckBody(engine_->num_clusters(),
                                          engine_->spec_responders());
      }
    } else {
      sealed = engine_->SealEpoch();
      if (sealed.ok()) {
        ack.type = FrameType::kSealEpochAck;
        ack.body = EncodeSealEpochAckBody(engine_->published().size());
      }
    }
    if (!sealed.ok()) ack.body = EncodeErrorBody(sealed);
    if (IngestTimed()) ObserveIngest(job.type, job.queued);
    {
      std::lock_guard<std::mutex> guard(job.loop->mu);
      job.loop->sealed.push_back(std::move(ack));
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(job.loop->event_fd, &one, sizeof(one));
  }
}

}  // namespace net
}  // namespace pldp
