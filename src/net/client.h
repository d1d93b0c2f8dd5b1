#ifndef PLDP_NET_CLIENT_H_
#define PLDP_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/status_or.h"

namespace pldp {
namespace net {

/// Blocking client side of the wire protocol: connects, sends the connection
/// magic, then exchanges frames synchronously. One instance drives one
/// connection; the loadgen multiplexes many synthetic users over each
/// instance (connection reuse), and the pipelined report path keeps a window
/// of frames in flight so throughput is not bound by one RTT per report.
///
/// Every frame is encoded in place into one per-connection write buffer,
/// and the kernel gets the buffer in one write per window rather than one
/// per frame. The buffer is flushed:
///  - before a blocking read that finds no complete reply buffered, so a
///    caller never waits on replies to frames it still holds;
///  - when it reaches kIoChunk bytes (one daemon read);
///  - by SendRaw, whose bytes go after the buffered frames;
///  - by Flush(), and best effort by Close().
/// So a blocking call still costs one write and one read. A failed write
/// comes back from the call that flushed: a blocking call or Read*,
/// Flush(), SendRaw, or the *NoWait call that filled the buffer. Every
/// write is a send() with MSG_NOSIGNAL, so a connection the daemon closed
/// yields IoError, never SIGPIPE.
///
/// Replies are parsed straight out of the decoder's buffer, each before the
/// next read, so a frame costs no heap allocation at either end; the one
/// left is the BitVector a RowAssignmentMsg owns.
///
/// Not thread-safe; each worker thread owns its own connection.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;

  /// Connects and sends the magic. `host` is a dotted IPv4 address.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  /// Flushes buffered frames (best effort: a write error is dropped), then
  /// closes the connection.
  void Close();

  /// Hands every buffered frame to the kernel.
  Status Flush();

  /// Uploads one user's spec; true when the server accepted (or already had)
  /// it.
  StatusOr<bool> UploadSpec(uint64_t user_id, const SpecUploadMsg& msg);

  /// Pipelined spec upload: buffer without waiting, balance with
  /// ReadSpecAck() (acks arrive in send order, like the report path).
  ///
  /// Every *NoWait call returns OK unless its frame filled the buffer and
  /// the flush that followed failed; a write error of the frames it only
  /// buffered comes back from whichever call flushes them.
  Status SendSpecNoWait(uint64_t user_id, const SpecUploadMsg& msg);
  StatusOr<bool> ReadSpecAck();

  /// Seals the spec phase at `cohort_size`. A kError reply surfaces as the
  /// carried Status.
  StatusOr<SealSpecsAckBody> SealSpecs(uint64_t cohort_size);

  /// Pipelined spec seal: buffer without waiting, balance with
  /// ReadSealSpecsAck().
  Status SendSealSpecsNoWait(uint64_t cohort_size);
  StatusOr<SealSpecsAckBody> ReadSealSpecsAck();

  /// Fetches one user's row assignment.
  StatusOr<RowAssignmentMsg> FetchAssignment(uint64_t user_id);

  /// Pipelined assignment fetch: buffer without waiting, balance with
  /// ReadAssignment().
  Status SendRowRequestNoWait(uint64_t user_id);
  StatusOr<RowAssignmentMsg> ReadAssignment();

  /// Writes raw bytes onto the connection after the buffered frames, in one
  /// flush (fault injection in the loadgen: deliberately corrupt frames the
  /// server must reject by closing).
  Status SendRaw(const std::vector<uint8_t>& bytes);

  /// Sends one report and waits for its ack.
  StatusOr<ReportOutcome> SubmitReport(uint64_t user_id, const ReportMsg& msg);

  /// Buffers one report frame without waiting for the ack (pipelining).
  /// Balance every call with ReadReportAck(); acks arrive in send order.
  Status SendReportNoWait(uint64_t user_id, const ReportMsg& msg);
  StatusOr<ReportOutcome> ReadReportAck();

  /// Seals the epoch; returns the published cell count.
  StatusOr<uint64_t> SealEpoch();

  /// Fetches the published estimates (bit-exact fixed64 transport).
  StatusOr<std::vector<double>> FetchEstimates();

  /// Control plane: fetches a live status snapshot (any phase, any time).
  StatusOr<StatsBody> FetchStats();

  /// Control plane: asks the daemon to stop accepting new connections.
  /// Existing connections (including this one) keep being served.
  Status Drain();

 private:
  /// Closes the frame BeginFrame(&out_, ...) started at `frame`, then
  /// flushes once the buffer reaches kIoChunk. Not connected: the frame is
  /// dropped and the result is FailedPrecondition.
  Status FinishFrame(size_t frame);

  /// Reads until one complete frame is decoded, flushing first when none is
  /// buffered. The frame's body is a view into decoder_, valid until the
  /// next read.
  StatusOr<Frame> ReadFrame();

  /// Reads one frame and requires `expected`; a kError frame is unwrapped
  /// into its carried Status, anything else is a protocol violation.
  StatusOr<Frame> ReadExpected(FrameType expected);

  int fd_ = -1;
  /// Frames not yet handed to the kernel.
  std::vector<uint8_t> out_;
  /// Server->client streams carry no magic, hence expect_magic = false.
  FrameDecoder decoder_{/*expect_magic=*/false};
};

}  // namespace net
}  // namespace pldp

#endif  // PLDP_NET_CLIENT_H_
