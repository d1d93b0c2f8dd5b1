#include "net/wire.h"

#include <cstring>

#include "protocol/serialization.h"
#include "util/crc32c.h"

namespace pldp {
namespace net {

namespace {

/// The SpecUploadMsg/ReportMsg parsers take a vector; the frame bodies embed
/// them after the varint user id, so re-slice the remainder.
std::vector<uint8_t> RemainderOf(const Reader& reader) {
  return std::vector<uint8_t>(reader.Remaining(),
                              reader.Remaining() + reader.RemainingSize());
}

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

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& body) {
  Writer writer;
  writer.PutFixed32(static_cast<uint32_t>(body.size() + 1));
  uint8_t type_byte = static_cast<uint8_t>(type);
  uint32_t crc = Crc32c(&type_byte, 1);
  crc = ExtendCrc32c(crc, body.data(), body.size());
  writer.PutFixed32(crc);
  writer.PutByte(type_byte);
  writer.PutRaw(body.data(), body.size());
  return std::move(writer.bytes());
}

std::vector<uint8_t> EncodeSpecUploadBody(uint64_t user_id,
                                          const SpecUploadMsg& msg) {
  Writer writer;
  writer.PutVarint64(user_id);
  const std::vector<uint8_t> inner = msg.Serialize();
  writer.PutRaw(inner.data(), inner.size());
  return std::move(writer.bytes());
}

StatusOr<SpecUploadBody> ParseSpecUploadBody(const std::vector<uint8_t>& body) {
  Reader reader(body);
  SpecUploadBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.user_id, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.msg, SpecUploadMsg::Parse(RemainderOf(reader)));
  return parsed;
}

std::vector<uint8_t> EncodeSealSpecsBody(uint64_t cohort_size) {
  Writer writer;
  writer.PutVarint64(cohort_size);
  return std::move(writer.bytes());
}

StatusOr<uint64_t> ParseSealSpecsBody(const std::vector<uint8_t>& body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t cohort, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_specs");
  }
  return cohort;
}

std::vector<uint8_t> EncodeSealSpecsAckBody(uint64_t num_clusters,
                                            uint64_t spec_responders) {
  Writer writer;
  writer.PutVarint64(num_clusters);
  writer.PutVarint64(spec_responders);
  return std::move(writer.bytes());
}

StatusOr<SealSpecsAckBody> ParseSealSpecsAckBody(
    const std::vector<uint8_t>& body) {
  Reader reader(body);
  SealSpecsAckBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.num_clusters, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.spec_responders, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_specs_ack");
  }
  return parsed;
}

std::vector<uint8_t> EncodeRowRequestBody(uint64_t user_id) {
  Writer writer;
  writer.PutVarint64(user_id);
  return std::move(writer.bytes());
}

StatusOr<uint64_t> ParseRowRequestBody(const std::vector<uint8_t>& body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t user_id, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in row_request");
  }
  return user_id;
}

std::vector<uint8_t> EncodeReportBody(uint64_t user_id, const ReportMsg& msg) {
  Writer writer;
  writer.PutVarint64(user_id);
  const std::vector<uint8_t> inner = msg.Serialize();
  writer.PutRaw(inner.data(), inner.size());
  return std::move(writer.bytes());
}

StatusOr<ReportBody> ParseReportBody(const std::vector<uint8_t>& body) {
  Reader reader(body);
  ReportBody parsed;
  PLDP_ASSIGN_OR_RETURN(parsed.user_id, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(parsed.msg, ReportMsg::Parse(RemainderOf(reader)));
  return parsed;
}

std::vector<uint8_t> EncodeSealEpochAckBody(uint64_t num_cells) {
  Writer writer;
  writer.PutVarint64(num_cells);
  return std::move(writer.bytes());
}

StatusOr<uint64_t> ParseSealEpochAckBody(const std::vector<uint8_t>& body) {
  Reader reader(body);
  PLDP_ASSIGN_OR_RETURN(const uint64_t num_cells, reader.GetVarint64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in seal_epoch_ack");
  }
  return num_cells;
}

std::vector<uint8_t> EncodeEstimatesBody(const std::vector<double>& counts) {
  Writer writer;
  writer.PutVarint64(counts.size());
  for (const double value : counts) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    writer.PutFixed64(bits);
  }
  return std::move(writer.bytes());
}

StatusOr<std::vector<double>> ParseEstimatesBody(
    const std::vector<uint8_t>& body) {
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
    PLDP_ASSIGN_OR_RETURN(const uint64_t bits, reader.GetFixed64());
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    counts.push_back(value);
  }
  return counts;
}

std::vector<uint8_t> EncodeStatsBody(const StatsBody& stats) {
  Writer writer;
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
  return std::move(writer.bytes());
}

StatusOr<StatsBody> ParseStatsBody(const std::vector<uint8_t>& body) {
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

std::vector<uint8_t> EncodeErrorBody(const Status& status) {
  Writer writer;
  writer.PutVarint64(static_cast<uint64_t>(status.code()));
  const std::string& message = status.message();
  writer.PutRaw(reinterpret_cast<const uint8_t*>(message.data()),
                message.size());
  return std::move(writer.bytes());
}

StatusOr<ErrorBody> ParseErrorBody(const std::vector<uint8_t>& body) {
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
      return Status::NotFound("awaiting connection magic");
    }
    if (std::memcmp(buffer_.data() + consumed_, kNetMagic, kNetMagicLen) !=
        0) {
      return Poison("bad connection magic");
    }
    consumed_ += kNetMagicLen;
    expect_magic_ = false;
  }
  if (buffered() < kFrameHeaderLen) {
    return Status::NotFound("awaiting frame header");
  }
  const uint8_t* header = buffer_.data() + consumed_;
  uint32_t payload_len = 0;
  uint32_t expected_crc = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(header[i]) << (8 * i);
    expected_crc |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  // The length is attacker-controlled until the CRC verifies, so it is
  // sanity-bounded first: an oversized claim poisons the stream instead of
  // waiting forever for bytes that will never come (or allocating them).
  if (payload_len == 0) return Poison("empty frame payload");
  if (payload_len > max_payload_) {
    return Poison("frame payload above limit");
  }
  if (buffered() < kFrameHeaderLen + payload_len) {
    return Status::NotFound("awaiting frame payload");
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
  frame.body.assign(payload + 1, payload + payload_len);
  consumed_ += kFrameHeaderLen + payload_len;
  return frame;
}

}  // namespace net
}  // namespace pldp
