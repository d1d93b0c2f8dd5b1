#ifndef PLDP_NET_WIRE_H_
#define PLDP_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocol/messages.h"
#include "util/status_or.h"

namespace pldp {
namespace net {

/// Wire format v1 of the socket-served aggregation daemon (docs/service.md).
///
/// A connection opens with the 8-byte magic "PLDPNET1"; everything after it
/// is a stream of length-prefixed frames:
///
///   frame: fixed32 payload_len | fixed32 crc32c(payload) | payload
///   payload: byte frame_type | body
///
/// The decode discipline matches the checkpoint format (protocol/checkpoint.h):
/// nothing in a frame is trusted before the length is bounds-checked against
/// `max_payload` and the CRC over the whole payload verifies. A frame that
/// fails either check is a protocol violation — the server closes the
/// connection rather than resynchronize on attacker-controlled bytes.
inline constexpr char kNetMagic[9] = "PLDPNET1";
inline constexpr size_t kNetMagicLen = 8;
inline constexpr size_t kFrameHeaderLen = 8;  // fixed32 len + fixed32 crc

/// Hard ceiling on one frame's payload; connection-level configs may lower
/// it but never raise it. Row assignments dominate (O(|tau|) bits), so 1 MiB
/// covers regions of ~8M cells.
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 20;

/// The daemon reads a connection in chunks of this size, and NetClient hands
/// the kernel its buffered frames once they reach it, so one client write
/// fits one daemon read.
inline constexpr size_t kIoChunk = 64 * 1024;

enum class FrameType : uint8_t {
  /// client -> server: varint user_id | SpecUploadMsg bytes.
  kSpecUpload = 1,
  /// server -> client: byte accepted (1/0).
  kSpecAck = 2,
  /// client -> server: varint cohort_size. Ends the spec phase; the server
  /// builds groups/clusters and precomputes every row assignment.
  kSealSpecs = 3,
  /// server -> client: varint num_clusters | varint spec_responders.
  kSealSpecsAck = 4,
  /// client -> server: varint user_id. Requests the user's row assignment.
  kRowRequest = 5,
  /// server -> client: RowAssignmentMsg bytes.
  kRowAssignment = 6,
  /// client -> server: varint user_id | ReportMsg bytes.
  kReport = 7,
  /// server -> client: byte ReportOutcome.
  kReportAck = 8,
  /// client -> server: empty body. Seals the epoch: fold + decode + publish.
  kSealEpoch = 9,
  /// server -> client: varint num_cells.
  kSealEpochAck = 10,
  /// client -> server: empty body. Requests the published estimates.
  kFetchEstimates = 11,
  /// server -> client: varint count | fixed64 IEEE-754 bits per cell
  /// (bit-exact, so a client can verify bit-identity with a local run).
  kEstimates = 12,
  /// server -> client: varint StatusCode | remaining bytes = message.
  kError = 13,
  /// client -> server: empty body. Control plane: requests a live status
  /// snapshot; answered from the epoll loop without touching the fold path.
  kStatsRequest = 14,
  /// server -> client: StatsBody bytes (see EncodeStatsBody).
  kStatsResponse = 15,
  /// client -> server: empty body. Control plane: stop accepting new
  /// connections; existing connections keep being served.
  kDrain = 16,
  /// server -> client: byte draining (always 1 after a kDrain).
  kDrainAck = 17,
};

/// Server-side verdict on one kReport frame, carried in kReportAck.
enum class ReportOutcome : uint8_t {
  kAccepted = 0,
  /// This user's report was already staged; the duplicate is discarded.
  kDuplicate = 1,
  /// Refused by admission control before staging (graceful degradation;
  /// compensated by the n/n_resp rescale like any non-responder).
  kShed = 2,
  /// Arrived after the epoch seal: counted in net.late_frames, never
  /// ingested, compensated by the same rescale path as shed reports.
  kLate = 3,
  /// user_id not in the sealed roster (never uploaded a spec).
  kUnknownUser = 4,
  /// Frame legal but not in this phase (e.g. a report before seal_specs).
  kWrongPhase = 5,
};

StatusOr<ReportOutcome> ParseReportOutcome(uint8_t byte);
const char* ReportOutcomeName(ReportOutcome outcome);

/// One decoded frame: the type byte plus a view of the body bytes after it,
/// inside the decoder's buffer. Next() never moves that buffer, so the view
/// stays valid until the decoder's next Feed: parse a frame before feeding
/// more bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::span<const uint8_t> body;
};

/// In-place frame encoding. BeginFrame appends a frame's 8-byte header
/// (still zero) and its type byte to `out` and returns where the frame
/// starts; the caller appends the body; EndFrame patches the length and the
/// CRC of the frame that starts at `frame` and runs to the end of `out`.
/// Requests and replies go straight into a connection's write buffer this
/// way, with no intermediate vector.
size_t BeginFrame(std::vector<uint8_t>* out, FrameType type);
void EndFrame(std::vector<uint8_t>* out, size_t frame);

/// Encodes `type` + `body` into a full frame (header included), as an owned
/// vector for tests and fault injection.
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& body);

/// Typed body codecs. Each Append*Body appends its body to `out` and is the
/// one encoder of its format; Encode*Body returns the same bytes as an owned
/// vector, for the callers that need one (tests, fault injection, the seal
/// thread's acks). Decoders validate everything (trailing bytes, embedded
/// message parses, enum ranges) and never read out of bounds; they are the
/// fuzz surface of tests/net_fuzz_test.cc.
void AppendSpecUploadBody(std::vector<uint8_t>* out, uint64_t user_id,
                          const SpecUploadMsg& msg);
std::vector<uint8_t> EncodeSpecUploadBody(uint64_t user_id,
                                          const SpecUploadMsg& msg);
struct SpecUploadBody {
  uint64_t user_id = 0;
  SpecUploadMsg msg;
};
StatusOr<SpecUploadBody> ParseSpecUploadBody(std::span<const uint8_t> body);

void AppendSealSpecsBody(std::vector<uint8_t>* out, uint64_t cohort_size);
std::vector<uint8_t> EncodeSealSpecsBody(uint64_t cohort_size);
StatusOr<uint64_t> ParseSealSpecsBody(std::span<const uint8_t> body);

void AppendSealSpecsAckBody(std::vector<uint8_t>* out, uint64_t num_clusters,
                            uint64_t spec_responders);
std::vector<uint8_t> EncodeSealSpecsAckBody(uint64_t num_clusters,
                                            uint64_t spec_responders);
struct SealSpecsAckBody {
  uint64_t num_clusters = 0;
  uint64_t spec_responders = 0;
};
StatusOr<SealSpecsAckBody> ParseSealSpecsAckBody(
    std::span<const uint8_t> body);

void AppendRowRequestBody(std::vector<uint8_t>* out, uint64_t user_id);
std::vector<uint8_t> EncodeRowRequestBody(uint64_t user_id);
StatusOr<uint64_t> ParseRowRequestBody(std::span<const uint8_t> body);

void AppendReportBody(std::vector<uint8_t>* out, uint64_t user_id,
                      const ReportMsg& msg);
std::vector<uint8_t> EncodeReportBody(uint64_t user_id, const ReportMsg& msg);
struct ReportBody {
  uint64_t user_id = 0;
  ReportMsg msg;
};
StatusOr<ReportBody> ParseReportBody(std::span<const uint8_t> body);

void AppendSealEpochAckBody(std::vector<uint8_t>* out, uint64_t num_cells);
std::vector<uint8_t> EncodeSealEpochAckBody(uint64_t num_cells);
StatusOr<uint64_t> ParseSealEpochAckBody(std::span<const uint8_t> body);

/// Estimates are shipped as raw IEEE-754 bit patterns so the transport never
/// rounds: what the server decoded is what the client compares.
void AppendEstimatesBody(std::vector<uint8_t>* out,
                         const std::vector<double>& counts);
std::vector<uint8_t> EncodeEstimatesBody(const std::vector<double>& counts);
StatusOr<std::vector<double>> ParseEstimatesBody(
    std::span<const uint8_t> body);

/// Live status snapshot carried by kStatsResponse: one consistent read of
/// the engine's counters plus the server's socket-level tallies. All counts
/// are observational — serving this frame never touches the fold path.
struct StatsBody {
  uint8_t phase = 0;     ///< EpochEngine::Phase as its wire value (0..3)
  uint8_t draining = 0;  ///< 1 once a kDrain closed the listener
  uint64_t uptime_ms = 0;
  uint64_t cohort_size = 0;
  uint64_t spec_responders = 0;
  uint64_t num_clusters = 0;
  uint64_t published_cells = 0;
  uint64_t specs_accepted = 0;
  uint64_t specs_duplicate = 0;
  uint64_t specs_invalid = 0;
  uint64_t reports_staged = 0;
  uint64_t reports_folded = 0;
  uint64_t reports_duplicate = 0;
  uint64_t reports_shed = 0;
  uint64_t late_frames = 0;
  uint64_t unknown_user_frames = 0;
  uint64_t wrong_phase_frames = 0;
  uint64_t restored_reports = 0;
  uint64_t checkpoints_written = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t frame_errors = 0;
};
void AppendStatsBody(std::vector<uint8_t>* out, const StatsBody& stats);
std::vector<uint8_t> EncodeStatsBody(const StatsBody& stats);
StatusOr<StatsBody> ParseStatsBody(std::span<const uint8_t> body);

void AppendErrorBody(std::vector<uint8_t>* out, const Status& status);
std::vector<uint8_t> EncodeErrorBody(const Status& status);
struct ErrorBody {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  Status ToStatus() const { return Status(code, message); }
};
StatusOr<ErrorBody> ParseErrorBody(std::span<const uint8_t> body);

/// Incremental frame extractor for one connection's byte stream. Feed bytes
/// as they arrive; Next() hands back complete frames in order. The decoder
/// consumes the connection magic first (when `expect_magic`), then frames.
///
/// Any violation — wrong magic, a length field above `max_payload`, a CRC
/// mismatch, an unknown frame type — poisons the decoder: Next() returns the
/// error forever and the owner must drop the connection. There is no
/// resynchronization on a corrupted stream by design.
class FrameDecoder {
 public:
  explicit FrameDecoder(bool expect_magic = true,
                        uint64_t max_payload = kMaxFramePayload);

  /// Appends raw received bytes.
  void Feed(const uint8_t* data, size_t len);
  void Feed(const std::vector<uint8_t>& bytes) {
    Feed(bytes.data(), bytes.size());
  }

  /// Extracts the next complete frame. Returns:
  ///  - OK with a frame when one is fully buffered and verifies; its body
  ///    is a view into this decoder, valid until the next Feed,
  ///  - NotFound when more bytes are needed (not an error, and it allocates
  ///    nothing),
  ///  - InvalidArgument (sticky) on any protocol violation.
  StatusOr<Frame> Next();

  /// True once Next() has returned InvalidArgument.
  bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Status Poison(const std::string& message);

  bool expect_magic_;
  uint64_t max_payload_;
  bool poisoned_ = false;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
};

}  // namespace net
}  // namespace pldp

#endif  // PLDP_NET_WIRE_H_
