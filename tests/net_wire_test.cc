// Wire format v1 (docs/service.md): frame encode/decode round-trips, typed
// body codecs, and the FrameDecoder's incremental-feed and poisoning
// discipline. The bit-exactness of the estimates body is load-bearing — the
// loadgen's bit-identity check compares doubles shipped through it.

#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "protocol/messages.h"
#include "util/bit_vector.h"

namespace pldp {
namespace net {
namespace {

/// An owned copy of a frame body view, for comparing against a vector.
std::vector<uint8_t> Bytes(std::span<const uint8_t> view) {
  return std::vector<uint8_t>(view.begin(), view.end());
}

std::vector<uint8_t> WithMagic(const std::vector<uint8_t>& frames) {
  std::vector<uint8_t> stream(reinterpret_cast<const uint8_t*>(kNetMagic),
                              reinterpret_cast<const uint8_t*>(kNetMagic) +
                                  kNetMagicLen);
  stream.insert(stream.end(), frames.begin(), frames.end());
  return stream;
}

TEST(NetWireTest, FrameRoundTripsThroughDecoder) {
  const std::vector<uint8_t> body = {0x01, 0x02, 0xFF, 0x00, 0x7F};
  const std::vector<uint8_t> encoded = EncodeFrame(FrameType::kReport, body);
  ASSERT_EQ(encoded.size(), kFrameHeaderLen + 1 + body.size());

  FrameDecoder decoder(/*expect_magic=*/false);
  decoder.Feed(encoded);
  const auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, FrameType::kReport);
  EXPECT_EQ(Bytes(frame->body), body);
  EXPECT_EQ(decoder.buffered(), 0u);

  // No more frames: NotFound is "need more bytes", not an error.
  const auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(decoder.poisoned());

  // Every frame type encoded in place, back to back in one buffer, equals
  // EncodeFrame over the owned body byte for byte, and decodes to it.
  SpecUploadMsg spec;
  spec.safe_region = 17;
  spec.epsilon = 0.75;
  ReportMsg report;
  report.positive = true;
  RowAssignmentMsg assignment;
  assignment.region = 9;
  assignment.m = 4099;
  assignment.row_index = 300;
  assignment.row_bits = BitVector(130);
  for (size_t i = 0; i < 130; i += 3) assignment.row_bits.Set(i, true);
  StatsBody stats;
  stats.phase = 1;
  stats.reports_staged = 123456;
  const std::vector<double> counts = {1.5, -0.0, 1e300};
  const Status error = Status::NotFound("user 7 is not in the sealed roster");
  using Append = std::function<void(std::vector<uint8_t>*)>;
  const std::vector<std::tuple<FrameType, std::vector<uint8_t>, Append>>
      cases = {
          {FrameType::kSpecUpload, EncodeSpecUploadBody(1u << 20, spec),
           [&](auto* out) { AppendSpecUploadBody(out, 1u << 20, spec); }},
          {FrameType::kSpecAck, {1}, [](auto* out) { out->push_back(1); }},
          {FrameType::kSealSpecs, EncodeSealSpecsBody(100000),
           [](auto* out) { AppendSealSpecsBody(out, 100000); }},
          {FrameType::kSealSpecsAck, EncodeSealSpecsAckBody(235, 99983),
           [](auto* out) { AppendSealSpecsAckBody(out, 235, 99983); }},
          {FrameType::kRowRequest, EncodeRowRequestBody(42),
           [](auto* out) { AppendRowRequestBody(out, 42); }},
          {FrameType::kRowAssignment, assignment.Serialize(),
           [&](auto* out) { assignment.AppendTo(out); }},
          {FrameType::kReport, EncodeReportBody(7, report),
           [&](auto* out) { AppendReportBody(out, 7, report); }},
          {FrameType::kReportAck, {2}, [](auto* out) { out->push_back(2); }},
          {FrameType::kSealEpoch, {}, [](auto*) {}},
          {FrameType::kSealEpochAck, EncodeSealEpochAckBody(4096),
           [](auto* out) { AppendSealEpochAckBody(out, 4096); }},
          {FrameType::kFetchEstimates, {}, [](auto*) {}},
          {FrameType::kEstimates, EncodeEstimatesBody(counts),
           [&](auto* out) { AppendEstimatesBody(out, counts); }},
          {FrameType::kError, EncodeErrorBody(error),
           [&](auto* out) { AppendErrorBody(out, error); }},
          {FrameType::kStatsRequest, {}, [](auto*) {}},
          {FrameType::kStatsResponse, EncodeStatsBody(stats),
           [&](auto* out) { AppendStatsBody(out, stats); }},
          {FrameType::kDrain, {}, [](auto*) {}},
          {FrameType::kDrainAck, {1}, [](auto* out) { out->push_back(1); }},
      };
  std::vector<uint8_t> stream;
  for (const auto& [type, owned_body, append] : cases) {
    const size_t frame = BeginFrame(&stream, type);
    append(&stream);
    EndFrame(&stream, frame);
    const std::vector<uint8_t> in_place(stream.begin() + frame, stream.end());
    EXPECT_EQ(in_place, EncodeFrame(type, owned_body))
        << "frame type " << static_cast<int>(type);
  }
  FrameDecoder in_place_decoder(/*expect_magic=*/false);
  in_place_decoder.Feed(stream);
  for (const auto& [type, owned_body, append] : cases) {
    const auto decoded = in_place_decoder.Next();
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(Bytes(decoded->body), owned_body);
  }
  EXPECT_EQ(in_place_decoder.buffered(), 0u);
}

TEST(NetWireTest, FrameViewsOfABufferedWindowStayValid) {
  // A pipelined window arrives in one read: every view Next() hands out
  // stays valid until the next Feed, not just until the next Next().
  constexpr size_t kWindow = 64;
  std::vector<uint8_t> window;
  for (size_t i = 0; i < kWindow; ++i) {
    ReportMsg report;
    report.positive = i % 3 == 0;
    const size_t frame = BeginFrame(&window, FrameType::kReport);
    AppendReportBody(&window, i * 1000, report);
    EndFrame(&window, frame);
  }
  FrameDecoder decoder(/*expect_magic=*/false);
  decoder.Feed(window);
  std::vector<Frame> frames;
  for (size_t i = 0; i < kWindow; ++i) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << frame.status();
    frames.push_back(*frame);
  }
  EXPECT_EQ(decoder.Next().status().code(), StatusCode::kNotFound);
  for (size_t i = 0; i < kWindow; ++i) {
    EXPECT_EQ(frames[i].type, FrameType::kReport);
    const auto body = ParseReportBody(frames[i].body);
    ASSERT_TRUE(body.ok()) << "frame " << i << ": " << body.status();
    EXPECT_EQ(body->user_id, i * 1000);
    EXPECT_EQ(body->msg.positive, i % 3 == 0);
  }
}

TEST(NetWireTest, DecoderConsumesMagicThenFrames) {
  std::vector<uint8_t> frames = EncodeFrame(FrameType::kSealEpoch, {});
  const std::vector<uint8_t> more = EncodeFrame(FrameType::kFetchEstimates, {});
  frames.insert(frames.end(), more.begin(), more.end());

  FrameDecoder decoder(/*expect_magic=*/true);
  decoder.Feed(WithMagic(frames));
  const auto first = decoder.Next();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->type, FrameType::kSealEpoch);
  const auto second = decoder.Next();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->type, FrameType::kFetchEstimates);
}

TEST(NetWireTest, DecoderHandlesByteAtATimeFeed) {
  const std::vector<uint8_t> body(300, 0xAB);
  const std::vector<uint8_t> stream =
      WithMagic(EncodeFrame(FrameType::kRowAssignment, body));

  FrameDecoder decoder(/*expect_magic=*/true);
  size_t frames_seen = 0;
  for (const uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    const auto frame = decoder.Next();
    if (frame.ok()) {
      ++frames_seen;
      EXPECT_EQ(Bytes(frame->body), body);
    } else {
      ASSERT_EQ(frame.status().code(), StatusCode::kNotFound)
          << frame.status();
    }
  }
  EXPECT_EQ(frames_seen, 1u);
}

TEST(NetWireTest, BadMagicPoisons) {
  std::vector<uint8_t> stream = WithMagic(EncodeFrame(FrameType::kReport, {}));
  stream[3] ^= 0x01;
  FrameDecoder decoder(/*expect_magic=*/true);
  decoder.Feed(stream);
  const auto frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetWireTest, CrcMismatchPoisonsStickily) {
  std::vector<uint8_t> encoded = EncodeFrame(FrameType::kReport, {0x01});
  encoded.back() ^= 0x10;  // flip a payload bit; CRC no longer verifies

  FrameDecoder decoder(/*expect_magic=*/false);
  decoder.Feed(encoded);
  const auto bad = decoder.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.poisoned());

  // Sticky: even a fresh valid frame cannot resynchronize the stream.
  decoder.Feed(EncodeFrame(FrameType::kReport, {0x01}));
  const auto still_bad = decoder.Next();
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, OversizedLengthPoisonsBeforeBuffering) {
  // A length field above max_payload must poison immediately — the decoder
  // must never try to buffer attacker-chosen gigabytes.
  FrameDecoder decoder(/*expect_magic=*/false, /*max_payload=*/64);
  const uint32_t huge = 1024;
  std::vector<uint8_t> header(8, 0);
  memcpy(header.data(), &huge, 4);
  decoder.Feed(header);
  const auto frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetWireTest, UnknownFrameTypePoisons) {
  FrameDecoder decoder(/*expect_magic=*/false);
  decoder.Feed(EncodeFrame(static_cast<FrameType>(200), {0x00}));
  const auto frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, EmptyPayloadFrameIsRejected) {
  // A frame needs at least the type byte; a zero-length payload cannot name
  // a frame type and must poison rather than decode.
  const uint32_t zero_len = 0;
  std::vector<uint8_t> raw(8, 0);
  memcpy(raw.data(), &zero_len, 4);
  FrameDecoder decoder(/*expect_magic=*/false);
  decoder.Feed(raw);
  EXPECT_FALSE(decoder.Next().ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetWireTest, SpecUploadBodyRoundTrips) {
  SpecUploadMsg msg;
  msg.safe_region = 17;
  msg.epsilon = 0.75;
  const auto body = EncodeSpecUploadBody(0xDEADBEEFCAFEull, msg);
  const auto parsed = ParseSpecUploadBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->user_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(parsed->msg.safe_region, 17u);
  EXPECT_DOUBLE_EQ(parsed->msg.epsilon, 0.75);

  // Trailing garbage after the embedded message is a protocol violation.
  auto trailing = body;
  trailing.push_back(0x00);
  EXPECT_FALSE(ParseSpecUploadBody(trailing).ok());
}

TEST(NetWireTest, SealSpecsBodiesRoundTrip) {
  const auto body = EncodeSealSpecsBody(1000000);
  const auto parsed = ParseSealSpecsBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), 1000000u);

  const auto ack = EncodeSealSpecsAckBody(37, 999983);
  const auto parsed_ack = ParseSealSpecsAckBody(ack);
  ASSERT_TRUE(parsed_ack.ok()) << parsed_ack.status();
  EXPECT_EQ(parsed_ack->num_clusters, 37u);
  EXPECT_EQ(parsed_ack->spec_responders, 999983u);
  EXPECT_FALSE(ParseSealSpecsAckBody({}).ok());
}

TEST(NetWireTest, RowRequestAndReportBodiesRoundTrip) {
  const auto req = EncodeRowRequestBody(42);
  const auto parsed_req = ParseRowRequestBody(req);
  ASSERT_TRUE(parsed_req.ok());
  EXPECT_EQ(parsed_req.value(), 42u);

  ReportMsg report;
  report.positive = true;
  const auto body = EncodeReportBody(7, report);
  const auto parsed = ParseReportBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->user_id, 7u);
  EXPECT_TRUE(parsed->msg.positive);
  EXPECT_FALSE(ParseReportBody({}).ok());
}

TEST(NetWireTest, SealEpochAckRoundTrips) {
  const auto body = EncodeSealEpochAckBody(4096);
  const auto parsed = ParseSealEpochAckBody(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), 4096u);
}

TEST(NetWireTest, EstimatesBodyIsBitExact) {
  // Estimates travel as raw IEEE-754 bits: denormals, negative zero, and
  // values with no short decimal form must survive unchanged.
  const std::vector<double> counts = {0.0, -0.0, 1.0 / 3.0,
                                      5e-324,  // smallest denormal
                                      -123456.789012345,
                                      1.7976931348623157e308};
  const auto body = EncodeEstimatesBody(counts);
  const auto parsed = ParseEstimatesBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), counts.size());
  EXPECT_EQ(0, memcmp(parsed->data(), counts.data(),
                      counts.size() * sizeof(double)));

  // Truncated payload: count promises more doubles than are present.
  auto truncated = body;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(ParseEstimatesBody(truncated).ok());
}

TEST(NetWireTest, ErrorBodyCarriesStatus) {
  const Status status = Status::FailedPrecondition("epoch already sealed");
  const auto body = EncodeErrorBody(status);
  const auto parsed = ParseErrorBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(parsed->message, "epoch already sealed");
  const Status round = parsed->ToStatus();
  EXPECT_EQ(round.code(), StatusCode::kFailedPrecondition);
}

TEST(NetWireTest, StatsBodyRoundTrips) {
  StatsBody stats;
  stats.phase = 1;
  stats.draining = 1;
  stats.uptime_ms = 123456789;
  stats.cohort_size = 1000000;
  stats.spec_responders = 999983;
  stats.num_clusters = 37;
  stats.published_cells = 4096;
  stats.specs_accepted = 999983;
  stats.specs_duplicate = 17;
  stats.specs_invalid = 3;
  stats.reports_staged = 500000;
  stats.reports_folded = 499000;
  stats.reports_duplicate = 42;
  stats.reports_shed = 1000;
  stats.late_frames = 5;
  stats.unknown_user_frames = 2;
  stats.wrong_phase_frames = 1;
  stats.restored_reports = 250000;
  stats.checkpoints_written = 12;
  stats.connections_accepted = 64;
  stats.connections_closed = 8;
  stats.frames_received = 2000000;
  stats.frames_sent = 2000001;
  stats.bytes_received = 0xFFFFFFFFFFull;
  stats.bytes_sent = 0x123456789Aull;
  stats.frame_errors = 7;

  const auto body = EncodeStatsBody(stats);
  const auto parsed = ParseStatsBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->phase, stats.phase);
  EXPECT_EQ(parsed->draining, stats.draining);
  EXPECT_EQ(parsed->uptime_ms, stats.uptime_ms);
  EXPECT_EQ(parsed->cohort_size, stats.cohort_size);
  EXPECT_EQ(parsed->spec_responders, stats.spec_responders);
  EXPECT_EQ(parsed->num_clusters, stats.num_clusters);
  EXPECT_EQ(parsed->published_cells, stats.published_cells);
  EXPECT_EQ(parsed->specs_accepted, stats.specs_accepted);
  EXPECT_EQ(parsed->specs_duplicate, stats.specs_duplicate);
  EXPECT_EQ(parsed->specs_invalid, stats.specs_invalid);
  EXPECT_EQ(parsed->reports_staged, stats.reports_staged);
  EXPECT_EQ(parsed->reports_folded, stats.reports_folded);
  EXPECT_EQ(parsed->reports_duplicate, stats.reports_duplicate);
  EXPECT_EQ(parsed->reports_shed, stats.reports_shed);
  EXPECT_EQ(parsed->late_frames, stats.late_frames);
  EXPECT_EQ(parsed->unknown_user_frames, stats.unknown_user_frames);
  EXPECT_EQ(parsed->wrong_phase_frames, stats.wrong_phase_frames);
  EXPECT_EQ(parsed->restored_reports, stats.restored_reports);
  EXPECT_EQ(parsed->checkpoints_written, stats.checkpoints_written);
  EXPECT_EQ(parsed->connections_accepted, stats.connections_accepted);
  EXPECT_EQ(parsed->connections_closed, stats.connections_closed);
  EXPECT_EQ(parsed->frames_received, stats.frames_received);
  EXPECT_EQ(parsed->frames_sent, stats.frames_sent);
  EXPECT_EQ(parsed->bytes_received, stats.bytes_received);
  EXPECT_EQ(parsed->bytes_sent, stats.bytes_sent);
  EXPECT_EQ(parsed->frame_errors, stats.frame_errors);
}

TEST(NetWireTest, StatsBodyRejectsMalformedInput) {
  StatsBody stats;
  const auto body = EncodeStatsBody(stats);

  // Trailing garbage after the last counter is a protocol violation.
  auto trailing = body;
  trailing.push_back(0x00);
  EXPECT_FALSE(ParseStatsBody(trailing).ok());

  // Truncated: counters missing off the end.
  auto truncated = body;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(ParseStatsBody(truncated).ok());

  // Out-of-range phase (only 0..3 exist; 3 is sealing) and draining (a
  // boolean).
  auto sealing = body;
  sealing[0] = 3;
  EXPECT_TRUE(ParseStatsBody(sealing).ok());
  auto bad_phase = body;
  bad_phase[0] = 4;
  EXPECT_FALSE(ParseStatsBody(bad_phase).ok());
  auto bad_draining = body;
  bad_draining[1] = 2;
  EXPECT_FALSE(ParseStatsBody(bad_draining).ok());

  EXPECT_FALSE(ParseStatsBody({}).ok());
}

TEST(NetWireTest, ReportOutcomeParseValidatesRange) {
  for (uint8_t b = 0; b <= 5; ++b) {
    const auto outcome = ParseReportOutcome(b);
    ASSERT_TRUE(outcome.ok()) << static_cast<int>(b);
    EXPECT_EQ(static_cast<uint8_t>(outcome.value()), b);
    EXPECT_NE(ReportOutcomeName(outcome.value()), nullptr);
  }
  EXPECT_FALSE(ParseReportOutcome(6).ok());
  EXPECT_FALSE(ParseReportOutcome(255).ok());
}

}  // namespace
}  // namespace net
}  // namespace pldp
