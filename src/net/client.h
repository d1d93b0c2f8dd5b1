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
  void Close();

  /// Uploads one user's spec; true when the server accepted (or already had)
  /// it.
  StatusOr<bool> UploadSpec(uint64_t user_id, const SpecUploadMsg& msg);

  /// Pipelined spec upload: send without waiting, balance with ReadSpecAck()
  /// (acks arrive in send order, like the report path).
  Status SendSpecNoWait(uint64_t user_id, const SpecUploadMsg& msg);
  StatusOr<bool> ReadSpecAck();

  /// Seals the spec phase at `cohort_size`. A kError reply surfaces as the
  /// carried Status.
  StatusOr<SealSpecsAckBody> SealSpecs(uint64_t cohort_size);

  /// Pipelined spec seal: send without waiting, balance with
  /// ReadSealSpecsAck().
  Status SendSealSpecsNoWait(uint64_t cohort_size);
  StatusOr<SealSpecsAckBody> ReadSealSpecsAck();

  /// Fetches one user's row assignment.
  StatusOr<RowAssignmentMsg> FetchAssignment(uint64_t user_id);

  /// Pipelined assignment fetch: send without waiting, balance with
  /// ReadAssignment().
  Status SendRowRequestNoWait(uint64_t user_id);
  StatusOr<RowAssignmentMsg> ReadAssignment();

  /// Writes raw bytes onto the connection (fault injection in the loadgen:
  /// deliberately corrupt frames the server must reject by closing).
  Status SendRaw(const std::vector<uint8_t>& bytes);

  /// Sends one report and waits for its ack.
  StatusOr<ReportOutcome> SubmitReport(uint64_t user_id, const ReportMsg& msg);

  /// Writes one report frame without waiting for the ack (pipelining).
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
  /// Sends one encoded frame (blocking until fully written).
  Status SendFrame(FrameType type, const std::vector<uint8_t>& body);

  /// Reads until one complete frame is decoded.
  StatusOr<Frame> ReadFrame();

  /// Reads one frame and requires `expected`; a kError frame is unwrapped
  /// into its carried Status, anything else is a protocol violation.
  StatusOr<Frame> ReadExpected(FrameType expected);

  int fd_ = -1;
  /// Server->client streams carry no magic, hence expect_magic = false.
  FrameDecoder decoder_{/*expect_magic=*/false};
};

}  // namespace net
}  // namespace pldp

#endif  // PLDP_NET_CLIENT_H_
