#include "protocol/messages.h"

#include "protocol/serialization.h"

namespace pldp {

void SpecUploadMsg::AppendTo(std::vector<uint8_t>* out) const {
  Writer writer(out);
  writer.PutVarint64(safe_region);
  writer.PutDouble(epsilon);
}

std::vector<uint8_t> SpecUploadMsg::Serialize() const {
  std::vector<uint8_t> bytes;
  AppendTo(&bytes);
  return bytes;
}

StatusOr<SpecUploadMsg> SpecUploadMsg::Parse(std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  SpecUploadMsg msg;
  PLDP_ASSIGN_OR_RETURN(uint64_t region, reader.GetVarint64());
  msg.safe_region = static_cast<NodeId>(region);
  PLDP_ASSIGN_OR_RETURN(msg.epsilon, reader.GetDouble());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in SpecUploadMsg");
  }
  return msg;
}

void AppendRowAssignmentHeader(std::vector<uint8_t>* out, NodeId region,
                               uint64_t m, uint64_t row_index,
                               uint64_t width) {
  Writer writer(out);
  writer.PutVarint64(region);
  writer.PutVarint64(m);
  writer.PutVarint64(row_index);
  writer.PutVarint64(width);
}

void RowAssignmentMsg::AppendTo(std::vector<uint8_t>* out) const {
  AppendRowAssignmentHeader(out, region, m, row_index, row_bits.size());
  row_bits.AppendBytes(out);
}

std::vector<uint8_t> RowAssignmentMsg::Serialize() const {
  std::vector<uint8_t> bytes;
  AppendTo(&bytes);
  return bytes;
}

StatusOr<RowAssignmentMsg> RowAssignmentMsg::Parse(
    std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  RowAssignmentMsg msg;
  PLDP_ASSIGN_OR_RETURN(uint64_t region, reader.GetVarint64());
  msg.region = static_cast<NodeId>(region);
  PLDP_ASSIGN_OR_RETURN(msg.m, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(msg.row_index, reader.GetVarint64());
  PLDP_ASSIGN_OR_RETURN(uint64_t width, reader.GetVarint64());
  if (width > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("row width implausibly large");
  }
  const size_t consumed = msg.row_bits.ParseBytes(
      reader.Remaining(), reader.RemainingSize(), width);
  if (consumed == 0 && width != 0) {
    return Status::InvalidArgument("truncated row bits");
  }
  reader.Skip(consumed);
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in RowAssignmentMsg");
  }
  return msg;
}

void ReportMsg::AppendTo(std::vector<uint8_t>* out) const {
  Writer(out).PutByte(positive ? 1 : 0);
}

std::vector<uint8_t> ReportMsg::Serialize() const {
  std::vector<uint8_t> bytes;
  AppendTo(&bytes);
  return bytes;
}

StatusOr<ReportMsg> ReportMsg::Parse(std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  ReportMsg msg;
  PLDP_ASSIGN_OR_RETURN(uint8_t value, reader.GetByte());
  if (value > 1) return Status::InvalidArgument("report byte must be 0/1");
  msg.positive = value == 1;
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in ReportMsg");
  }
  return msg;
}

}  // namespace pldp
