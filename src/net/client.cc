#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace pldp {
namespace net {

namespace {

/// Writes all of `data`. MSG_NOSIGNAL turns a write to a connection the
/// peer closed into EPIPE instead of a process-killing SIGPIPE.
Status SendAll(int fd, const uint8_t* data, size_t size, const char* what) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string(what) + ": " + strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

NetClient::~NetClient() { Close(); }

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(other.fd_),
      out_(std::move(other.out_)),
      decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    out_ = std::move(other.out_);
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
  }
  return *this;
}

void NetClient::Close() {
  if (fd_ >= 0) {
    Flush();  // best effort: the connection goes either way
    ::close(fd_);
    fd_ = -1;
  }
  out_.clear();
  decoder_ = FrameDecoder(/*expect_magic=*/false);
}

Status NetClient::Flush() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (out_.empty()) return Status::OK();
  // On failure the stream is broken mid-frame, so nothing is kept to retry.
  const Status written = SendAll(fd_, out_.data(), out_.size(), "frame write");
  out_.clear();
  return written;
}

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = strerror(errno);
    Close();
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // The connection opens with the protocol magic.
  const Status magic =
      SendAll(fd_, reinterpret_cast<const uint8_t*>(kNetMagic), kNetMagicLen,
              "magic write");
  if (!magic.ok()) Close();
  return magic;
}

Status NetClient::FinishFrame(size_t frame) {
  if (fd_ < 0) {
    out_.resize(frame);
    return Status::FailedPrecondition("client is not connected");
  }
  EndFrame(&out_, frame);
  return out_.size() >= kIoChunk ? Flush() : Status::OK();
}

StatusOr<Frame> NetClient::ReadFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  while (true) {
    StatusOr<Frame> frame = decoder_.Next();
    if (frame.ok()) return frame;
    if (frame.status().code() != StatusCode::kNotFound) {
      return frame.status();  // poisoned stream
    }
    // No reply is buffered, and the frames it answers may still be here.
    PLDP_RETURN_IF_ERROR(Flush());
    uint8_t buf[16 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IoError("connection closed by server");
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("frame read: ") + strerror(errno));
  }
}

StatusOr<Frame> NetClient::ReadExpected(FrameType expected) {
  PLDP_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.type == expected) return frame;
  if (frame.type == FrameType::kError) {
    PLDP_ASSIGN_OR_RETURN(const ErrorBody carried, ParseErrorBody(frame.body));
    return carried.ToStatus();
  }
  return Status::InvalidArgument(
      "unexpected frame type from server: got " +
      std::to_string(static_cast<int>(frame.type)) + ", want " +
      std::to_string(static_cast<int>(expected)));
}

StatusOr<bool> NetClient::UploadSpec(uint64_t user_id,
                                     const SpecUploadMsg& msg) {
  PLDP_RETURN_IF_ERROR(SendSpecNoWait(user_id, msg));
  return ReadSpecAck();
}

Status NetClient::SendSpecNoWait(uint64_t user_id, const SpecUploadMsg& msg) {
  const size_t frame = BeginFrame(&out_, FrameType::kSpecUpload);
  AppendSpecUploadBody(&out_, user_id, msg);
  return FinishFrame(frame);
}

StatusOr<bool> NetClient::ReadSpecAck() {
  PLDP_ASSIGN_OR_RETURN(const Frame ack, ReadExpected(FrameType::kSpecAck));
  if (ack.body.size() != 1 || ack.body[0] > 1) {
    return Status::InvalidArgument("malformed spec ack");
  }
  return ack.body[0] == 1;
}

StatusOr<SealSpecsAckBody> NetClient::SealSpecs(uint64_t cohort_size) {
  PLDP_RETURN_IF_ERROR(SendSealSpecsNoWait(cohort_size));
  return ReadSealSpecsAck();
}

Status NetClient::SendSealSpecsNoWait(uint64_t cohort_size) {
  const size_t frame = BeginFrame(&out_, FrameType::kSealSpecs);
  AppendSealSpecsBody(&out_, cohort_size);
  return FinishFrame(frame);
}

StatusOr<SealSpecsAckBody> NetClient::ReadSealSpecsAck() {
  PLDP_ASSIGN_OR_RETURN(const Frame ack,
                        ReadExpected(FrameType::kSealSpecsAck));
  return ParseSealSpecsAckBody(ack.body);
}

StatusOr<RowAssignmentMsg> NetClient::FetchAssignment(uint64_t user_id) {
  PLDP_RETURN_IF_ERROR(SendRowRequestNoWait(user_id));
  return ReadAssignment();
}

Status NetClient::SendRowRequestNoWait(uint64_t user_id) {
  const size_t frame = BeginFrame(&out_, FrameType::kRowRequest);
  AppendRowRequestBody(&out_, user_id);
  return FinishFrame(frame);
}

StatusOr<RowAssignmentMsg> NetClient::ReadAssignment() {
  PLDP_ASSIGN_OR_RETURN(const Frame reply,
                        ReadExpected(FrameType::kRowAssignment));
  return RowAssignmentMsg::Parse(reply.body);
}

Status NetClient::SendRaw(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  return Flush();
}

StatusOr<ReportOutcome> NetClient::SubmitReport(uint64_t user_id,
                                                const ReportMsg& msg) {
  PLDP_RETURN_IF_ERROR(SendReportNoWait(user_id, msg));
  return ReadReportAck();
}

Status NetClient::SendReportNoWait(uint64_t user_id, const ReportMsg& msg) {
  const size_t frame = BeginFrame(&out_, FrameType::kReport);
  AppendReportBody(&out_, user_id, msg);
  return FinishFrame(frame);
}

StatusOr<ReportOutcome> NetClient::ReadReportAck() {
  PLDP_ASSIGN_OR_RETURN(const Frame ack,
                        ReadExpected(FrameType::kReportAck));
  if (ack.body.size() != 1) {
    return Status::InvalidArgument("malformed report ack");
  }
  return ParseReportOutcome(ack.body[0]);
}

StatusOr<uint64_t> NetClient::SealEpoch() {
  PLDP_RETURN_IF_ERROR(
      FinishFrame(BeginFrame(&out_, FrameType::kSealEpoch)));
  PLDP_ASSIGN_OR_RETURN(const Frame ack,
                        ReadExpected(FrameType::kSealEpochAck));
  return ParseSealEpochAckBody(ack.body);
}

StatusOr<std::vector<double>> NetClient::FetchEstimates() {
  PLDP_RETURN_IF_ERROR(
      FinishFrame(BeginFrame(&out_, FrameType::kFetchEstimates)));
  PLDP_ASSIGN_OR_RETURN(const Frame reply,
                        ReadExpected(FrameType::kEstimates));
  return ParseEstimatesBody(reply.body);
}

StatusOr<StatsBody> NetClient::FetchStats() {
  PLDP_RETURN_IF_ERROR(
      FinishFrame(BeginFrame(&out_, FrameType::kStatsRequest)));
  PLDP_ASSIGN_OR_RETURN(const Frame reply,
                        ReadExpected(FrameType::kStatsResponse));
  return ParseStatsBody(reply.body);
}

Status NetClient::Drain() {
  PLDP_RETURN_IF_ERROR(
      FinishFrame(BeginFrame(&out_, FrameType::kDrain)));
  PLDP_ASSIGN_OR_RETURN(const Frame reply, ReadExpected(FrameType::kDrainAck));
  if (reply.body.size() != 1 || reply.body[0] != 1) {
    return Status::InvalidArgument("malformed drain ack");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace pldp
