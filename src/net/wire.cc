#include "net/wire.h"

#include <cstring>

#include "protocol/serialization.h"
#include "util/crc32c.h"

namespace pldp {
namespace net {

namespace {

/// What Next() says while a frame is incomplete. It fits the small-string
/// buffer, so the miss allocates nothing.
constexpr char kNeedMoreBytes[] = "need more bytes";

}  // namespace

StatusOr<ReportOutcome> ParseReportOutcome(uint8_t byte) {
  if (byte > static_cast<uint8_t>(ReportOutcome::kWrongPhase)) {
    return Status::InvalidArgument("unknown report outcome byte");
  }
  return static_cast<ReportOutcome>(byte);
}

const char* ReportOutcomeName(ReportOutcome outcome) {
  switch (outcome) {
    case ReportOutcome::kAccepted:
      return "accepted";
    case ReportOutcome::kDuplicate:
      return "duplicate";
    case ReportOutcome::kShed:
      return "shed";
    case ReportOutcome::kLate:
      return "late";
    case ReportOutcome::kUnknownUser:
      return "unknown-user";
    case ReportOutcome::kWrongPhase:
      return "wrong-phase";
  }
  return "?";
}

size_t BeginFrame(std::vector<uint8_t>* out, FrameType type) {
  const size_t frame = out->size();
  out->resize(frame + kFrameHeaderLen);
  out->push_back(static_cast<uint8_t>(type));
  return frame;
}

void EndFrame(std::vector<uint8_t>* out, size_t frame) {
  uint8_t* header = out->data() + frame;
  const uint8_t* payload = header + kFrameHeaderLen;
  const size_t payload_len = out->size() - frame - kFrameHeaderLen;
  StoreFixed32(header, static_cast<uint32_t>(payload_len));
  StoreFixed32(header + 4, Crc32c(payload, payload_len));
}

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out;
  const size_t frame = BeginFrame(&out, type);
  out.insert(out.end(), body.begin(), body.end());
  EndFrame(&out, frame);
  return out;
}

void AppendSpecUploadBody(std::vector<uint8_t>* out, uint64_t user_id,
                          const SpecUploadMsg& msg) {
  Writer(out).PutVarint64(user_id);
  msg.AppendTo(out);
}

std::vector<uint8_t> EncodeSpecUploadBody(uint64_t user_id,
                                          const SpecUploadMsg& msg) {
  std::vector<uint8_t> body;
  AppendSpecUploadBody(&body, user_id, msg);
  return body;
}

StatusOr<SpecUploadBody> ParseSpecUploadBody(std::span<const uint8_t> body) {
  Reader reader(body);
  SpecUploadBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.user_id, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.msg, SpecUploadMsg::Parse(reader.Rest()));
  return parsed;
}

void AppendSealSpecsBody(std::vector<uint8_t>* out, uint64_t cohort_size) {
  Writer(out).PutVarint64(cohort_size);
}

std::vector<uint8_t> EncodeSealSpecsBody(uint64_t cohort_size) {
  std::vector<uint8_t> body;
  AppendSealSpecsBody(&body, cohort_size);
  return body;
}

StatusOr<uint64_t> ParseSealSpecsBody(std::span<const uint8_t> body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t cohort, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_specs");
  }
  return cohort;
}

void AppendSealSpecsAckBody(std::vector<uint8_t>* out, uint64_t num_clusters,
                            uint64_t spec_responders) {
  Writer writer(out);
  writer.PutVarint64(num_clusters);
  writer.PutVarint64(spec_responders);
}

std::vector<uint8_t> EncodeSealSpecsAckBody(uint64_t num_clusters,
                                            uint64_t spec_responders) {
  std::vector<uint8_t> body;
  AppendSealSpecsAckBody(&body, num_clusters, spec_responders);
  return body;
}

StatusOr<SealSpecsAckBody> ParseSealSpecsAckBody(
    std::span<const uint8_t> body) {
  Reader reader(body);
  SealSpecsAckBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.num_clusters, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.spec_responders, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_specs_ack");
  }
  return parsed;
}

void AppendRowRequestBody(std::vector<uint8_t>* out, uint64_t user_id) {
  Writer(out).PutVarint64(user_id);
}

std::vector<uint8_t> EncodeRowRequestBody(uint64_t user_id) {
  std::vector<uint8_t> body;
  AppendRowRequestBody(&body, user_id);
  return body;
}

StatusOr<uint64_t> ParseRowRequestBody(std::span<const uint8_t> body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t user_id, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in row_request");
  }
  return user_id;
}

void AppendReportBody(std::vector<uint8_t>* out, uint64_t user_id,
                      const ReportMsg& msg) {
  Writer(out).PutVarint64(user_id);
  msg.AppendTo(out);
}

std::vector<uint8_t> EncodeReportBody(uint64_t user_id, const ReportMsg& msg) {
  std::vector<uint8_t> body;
  AppendReportBody(&body, user_id, msg);
  return body;
}

StatusOr<ReportBody> ParseReportBody(std::span<const uint8_t> body) {
  Reader reader(body);
  ReportBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.user_id, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.msg, ReportMsg::Parse(reader.Rest()));
  return parsed;
}

void AppendSealEpochAckBody(std::vector<uint8_t>* out, uint64_t num_cells) {
  Writer(out).PutVarint64(num_cells);
}

std::vector<uint8_t> EncodeSealEpochAckBody(uint64_t num_cells) {
  std::vector<uint8_t> body;
  AppendSealEpochAckBody(&body, num_cells);
  return body;
}

StatusOr<uint64_t> ParseSealEpochAckBody(std::span<const uint8_t> body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t num_cells, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_epoch_ack");
  }
  return num_cells;
}

void AppendEstimatesBody(std::vector<uint8_t>* out,
                         const std::vector<double>& counts) {
  Writer writer(out);
  writer.PutVarint64(counts.size());
  for (const double value : counts) writer.PutDouble(value);
}

std::vector<uint8_t> EncodeEstimatesBody(const std::vector<double>& counts) {
  std::vector<uint8_t> body;
  AppendEstimatesBody(&body, counts);
  return body;
}

StatusOr<std::vector<double>> ParseEstimatesBody(
    std::span<const uint8_t> body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t count, reader.GetVarint64());
  // Bounds-check the count against the bytes actually present before any
  // allocation: a mutated count must not trigger a giant reserve.
  if (count > kMaxFramePayload / sizeof(uint64_t) ||
      reader.RemainingSize() != count * sizeof(uint64_t)) {
    return Status::InvalidArgument("estimates body length mismatch");
  }
  std::vector<double> counts;
  counts.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PLDP_ASSIGN_OR_RETURN(const double value, reader.GetDouble());
    counts.push_back(value);
  }
  return counts;
}

void AppendStatsBody(std::vector<uint8_t>* out, const StatsBody& stats) {
  Writer writer(out);
  writer.PutByte(stats.phase);
  writer.PutByte(stats.draining);
  writer.PutVarint64(stats.uptime_ms);
  writer.PutVarint64(stats.cohort_size);
  writer.PutVarint64(stats.spec_responders);
  writer.PutVarint64(stats.num_clusters);
  writer.PutVarint64(stats.published_cells);
  writer.PutVarint64(stats.specs_accepted);
  writer.PutVarint64(stats.specs_duplicate);
  writer.PutVarint64(stats.specs_invalid);
  writer.PutVarint64(stats.reports_staged);
  writer.PutVarint64(stats.reports_folded);
  writer.PutVarint64(stats.reports_duplicate);
  writer.PutVarint64(stats.reports_shed);
  writer.PutVarint64(stats.late_frames);
  writer.PutVarint64(stats.unknown_user_frames);
  writer.PutVarint64(stats.wrong_phase_frames);
  writer.PutVarint64(stats.restored_reports);
  writer.PutVarint64(stats.checkpoints_written);
  writer.PutVarint64(stats.connections_accepted);
  writer.PutVarint64(stats.connections_closed);
  writer.PutVarint64(stats.frames_received);
  writer.PutVarint64(stats.frames_sent);
  writer.PutVarint64(stats.bytes_received);
  writer.PutVarint64(stats.bytes_sent);
  writer.PutVarint64(stats.frame_errors);
}

std::vector<uint8_t> EncodeStatsBody(const StatsBody& stats) {
  std::vector<uint8_t> body;
  AppendStatsBody(&body, stats);
  return body;
}

StatusOr<StatsBody> ParseStatsBody(std::span<const uint8_t> body) {
  Reader reader(body);
  StatsBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.phase, reader.GetByte());
  if (parsed.phase > 3) {
    return Status::InvalidArgument("unknown phase in stats body");
  }
  PLDP_ASSIGN_OR_RETURN(parsed.draining, reader.GetByte());
  if (parsed.draining > 1) {
    return Status::InvalidArgument("bad draining flag in stats body");
  }
  PLDP_ASSIGN_OR_RETURN(parsed.uptime_ms, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.cohort_size, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.spec_responders, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.num_clusters, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.published_cells, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.specs_accepted, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.specs_duplicate, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.specs_invalid, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.reports_staged, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.reports_folded, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.reports_duplicate, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.reports_shed, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.late_frames, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.unknown_user_frames, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.wrong_phase_frames, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.restored_reports, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.checkpoints_written, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.connections_accepted, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.connections_closed, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.frames_received, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.frames_sent, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.bytes_received, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.bytes_sent, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.frame_errors, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in stats body");
  }
  return parsed;
}

void AppendErrorBody(std::vector<uint8_t>* out, const Status& status) {
  Writer writer(out);
  writer.PutVarint64(static_cast<uint64_t>(status.code()));
  const std::string& message = status.message();
  writer.PutRaw(reinterpret_cast<const uint8_t*>(message.data()),
                message.size());
}

std::vector<uint8_t> EncodeErrorBody(const Status& status) {
  std::vector<uint8_t> body;
  AppendErrorBody(&body, status);
  return body;
}

StatusOr<ErrorBody> ParseErrorBody(std::span<const uint8_t> body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t code, reader.GetVarint64());
  if (code > static_cast<uint64_t>(StatusCode::kAborted)) {
    return Status::InvalidArgument("unknown status code in error frame");
  }
  ErrorBody parsed;
  parsed.code = static_cast<StatusCode>(code);
  parsed.message.assign(reinterpret_cast<const char*>(reader.Remaining()),
                        reader.RemainingSize());
  return parsed;
}

FrameDecoder::FrameDecoder(bool expect_magic, uint64_t max_payload)
    : expect_magic_(expect_magic),
      max_payload_(std::min(max_payload, kMaxFramePayload)) {}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (poisoned_) return;  // the connection is already doomed; drop the bytes
  // Compact once the consumed prefix dominates, keeping Feed amortized O(n).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + len);
}

Status FrameDecoder::Poison(const std::string& message) {
  poisoned_ = true;
  return Status::InvalidArgument(message);
}

StatusOr<Frame> FrameDecoder::Next() {
  if (poisoned_) return Status::InvalidArgument("frame stream poisoned");
  if (expect_magic_) {
    if (buffered() < kNetMagicLen) {
      return Status::NotFound(kNeedMoreBytes);
    }
    if (std::memcmp(buffer_.data() + consumed_, kNetMagic, kNetMagicLen) !=
        0) {
      return Poison("bad connection magic");
    }
    consumed_ += kNetMagicLen;
    expect_magic_ = false;
  }
  if (buffered() < kFrameHeaderLen) {
    return Status::NotFound(kNeedMoreBytes);
  }
  const uint8_t* header = buffer_.data() + consumed_;
  const uint32_t payload_len = LoadFixed32(header);
  const uint32_t expected_crc = LoadFixed32(header + 4);
  // The length is attacker-controlled until the CRC verifies, so it is
  // sanity-bounded first: an oversized claim poisons the stream instead of
  // waiting forever for bytes that will never come (or allocating them).
  if (payload_len == 0) return Poison("empty frame payload");
  if (payload_len > max_payload_) {
    return Poison("frame payload above limit");
  }
  if (buffered() < kFrameHeaderLen + payload_len) {
    return Status::NotFound(kNeedMoreBytes);
  }
  const uint8_t* payload = header + kFrameHeaderLen;
  if (Crc32c(payload, payload_len) != expected_crc) {
    return Poison("frame crc mismatch");
  }
  const uint8_t type_byte = payload[0];
  if (type_byte < static_cast<uint8_t>(FrameType::kSpecUpload) ||
      type_byte > static_cast<uint8_t>(FrameType::kDrainAck)) {
    return Poison("unknown frame type");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.body = std::span<const uint8_t>(payload + 1, payload_len - 1);
  consumed_ += kFrameHeaderLen + payload_len;
  return frame;
}

}  // namespace net
}  // namespace pldp
