#ifndef PLDP_NET_SERVER_H_
#define PLDP_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/epoch_engine.h"
#include "net/wire.h"
#include "util/status.h"

namespace pldp {
namespace net {

/// Configuration of the TCP front half of the aggregation daemon.
struct NetServerOptions {
  /// Listen address; the loopback default suits tests and the loadgen.
  std::string bind_address = "127.0.0.1";

  /// Port to bind; 0 asks the kernel for an ephemeral port (read it back
  /// with port() after Start).
  uint16_t port = 0;

  /// listen(2) backlog.
  int backlog = 1024;

  /// I/O threads, each running its own epoll loop over a share of the
  /// connections; 0 reads PLDP_NET_THREADS (clamped to [1, 64]), defaulting
  /// to 2. Frame handling calls straight into the mutex-guarded EpochEngine;
  /// report arrival stays O(1) per frame (staging), so a small set saturates
  /// loopback well before the engine does.
  unsigned io_threads = 0;

  /// Per-connection frame payload ceiling (clamped to kMaxFramePayload).
  uint64_t max_frame_payload = kMaxFramePayload;
};

/// Resolves the effective I/O thread count (options value, else
/// PLDP_NET_THREADS, else 2; clamped to [1, 64]).
unsigned ResolveIoThreads(unsigned requested);

/// Aggregate socket accounting, readable while the server runs.
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  /// Connections dropped for protocol violations (bad magic, CRC mismatch,
  /// oversized or unknown frames). Never causes partial ingest: the decoder
  /// poisons before any byte of the bad frame is interpreted.
  uint64_t frame_errors = 0;
  /// kEstimates frames written to their sockets in full.
  uint64_t estimates_sent = 0;
};

/// Non-blocking epoll TCP daemon serving one EpochEngine.
///
/// Layout: Start() binds + listens, then spawns `io_threads` event loops.
/// The listener lives on loop 0; accepted connections are handed round-robin
/// to the loops via an eventfd-signalled transfer queue. Each loop owns its
/// connections outright (per-connection FrameDecoder + write queue), so no
/// connection state is ever shared between threads — the only cross-thread
/// objects are the engine, which guards itself, and the mutex-guarded queues
/// that hand sockets, seals and acks between threads.
///
/// A decoded frame is a view into its connection's decoder, parsed before
/// the next read, and every reply is encoded in place in the connection's
/// write buffer, so a frame costs no heap allocation.
///
/// Frame dispatch is synchronous for every frame but the two seals: a
/// decoded report frame is one O(1) EpochEngine::SubmitReport call (staging,
/// no accumulator work). A kSealSpecs or kSealEpoch frame goes on a FIFO
/// queue for the one seal thread, and its connection pauses until the ack is
/// queued: it drops EPOLLIN (the epoll here is level-triggered) and its later
/// frames wait in its decoder, so replies stay FIFO per connection. The ack
/// comes back through the loop's eventfd, as accepted sockets do, and finds
/// its connection by serial, since fds are reused. Meanwhile the loops keep
/// serving every other connection, stats frames included. The seal gets a
/// thread of its own because a ParallelFor issued from a pool worker runs
/// inline, which would fold and decode serially.
///
/// Stop() is graceful: stops accepting, drains the loops, lets an in-flight
/// seal finish and drops queued ones, closes every connection, joins the
/// threads. The caller owns the durability decision (the CLI's SIGTERM
/// handler calls Stop() then EpochEngine::Checkpoint()).
class NetServer {
 public:
  /// `engine` must outlive the server.
  NetServer(EpochEngine* engine, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the I/O threads. Fails IoError on any
  /// socket-layer refusal (port in use, bad address).
  Status Start();

  /// The bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// True between a successful Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful shutdown; idempotent. Safe to call from a signal-driven path
  /// (it only flags + writes eventfds, the loops do the teardown).
  void Stop();

  NetServerStats stats() const;

  /// The full status frame payload: engine counters (one consistent engine
  /// snapshot), socket tallies, uptime, and the draining flag. This is what
  /// kStatsResponse carries and what the admin endpoint's /status renders —
  /// both paths read the same snapshot so the counts agree.
  StatsBody ServiceStats() const;

  /// Stops accepting new connections (removes the listener from its epoll
  /// set) while existing connections keep being served; idempotent. The
  /// control-plane kDrain frame lands here.
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct Connection;
  struct IoLoop;

  /// A seal frame waiting for the seal thread.
  struct SealJob {
    IoLoop* loop = nullptr;
    int fd = -1;
    uint64_t serial = 0;
    FrameType type = FrameType::kSealSpecs;
    uint64_t cohort_size = 0;
    std::chrono::steady_clock::time_point queued;
  };

  void LoopMain(IoLoop* loop, bool is_acceptor);
  void AcceptPending(IoLoop* loop);
  /// Queues the acks of finished seals and resumes their connections.
  void ResumeSealed(IoLoop* loop);
  /// Reads until EAGAIN, then dispatches. False => close.
  bool HandleReadable(IoLoop* loop, Connection* conn);
  /// Dispatches decoded frames until the decoder runs dry or a seal pauses
  /// the connection, then flushes. False => close.
  bool DispatchFrames(IoLoop* loop, Connection* conn);
  /// Flushes the write queue until EAGAIN. False => close.
  bool FlushWrites(IoLoop* loop, Connection* conn);
  /// Registers EPOLLIN unless the connection is paused, and EPOLLOUT while
  /// it has bytes to write.
  void UpdateInterest(IoLoop* loop, Connection* conn);
  /// Dispatches one decoded frame into the engine, queueing the response,
  /// or queues a seal frame for the seal thread and pauses the connection.
  /// False => protocol violation, close the connection.
  bool HandleFrame(IoLoop* loop, Connection* conn, const Frame& frame);
  /// Replies are encoded in place in conn->out: BeginFrame starts one there,
  /// the caller appends its body, and EndReply closes the frame and counts
  /// it sent.
  void EndReply(Connection* conn, size_t frame);
  /// Queues one reply whose body is already encoded.
  void QueueFrame(Connection* conn, FrameType type,
                  std::span<const uint8_t> body);
  /// Queues a kError reply carrying `status`.
  void QueueError(Connection* conn, const Status& status);
  void CloseConnection(IoLoop* loop, Connection* conn);
  /// The seal thread: runs queued seals in arrival order.
  void SealMain();

  EpochEngine* engine_;
  NetServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point start_time_{};
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> next_loop_{0};
  std::atomic<uint64_t> next_serial_{0};

  std::thread seal_thread_;
  std::mutex seal_mu_;
  std::condition_variable seal_ready_;
  std::deque<SealJob> seal_queue_;  // guarded by seal_mu_
  bool seal_stop_ = false;          // guarded by seal_mu_

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> estimates_sent_{0};
};

}  // namespace net
}  // namespace pldp

#endif  // PLDP_NET_SERVER_H_
