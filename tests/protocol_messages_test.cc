#include "protocol/messages.h"

#include <gtest/gtest.h>

#include "protocol/serialization.h"
#include "util/random.h"

namespace pldp {
namespace {

TEST(SerializationTest, VarintRoundTrip) {
  Writer writer;
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 20, uint64_t{1} << 40,
                             ~uint64_t{0}};
  for (const uint64_t v : values) writer.PutVarint64(v);
  Reader reader(writer.bytes());
  for (const uint64_t v : values) {
    EXPECT_EQ(reader.GetVarint64().value(), v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializationTest, VarintTruncatedFails) {
  Writer writer;
  writer.PutVarint64(300);
  std::vector<uint8_t> bytes = writer.bytes();
  bytes.pop_back();
  Reader reader(bytes.data(), bytes.size());
  EXPECT_FALSE(reader.GetVarint64().ok());
}

TEST(SerializationTest, DoubleRoundTrip) {
  Writer writer;
  const double values[] = {0.0, 1.0, -124.8, 1e-300, 1e300};
  for (const double v : values) writer.PutDouble(v);
  Reader reader(writer.bytes());
  for (const double v : values) {
    EXPECT_DOUBLE_EQ(reader.GetDouble().value(), v);
  }
}

TEST(SpecUploadMsgTest, RoundTrip) {
  SpecUploadMsg msg;
  msg.safe_region = 42;
  msg.epsilon = 0.75;
  const auto bytes = msg.Serialize();
  const SpecUploadMsg parsed = SpecUploadMsg::Parse(bytes).value();
  EXPECT_EQ(parsed.safe_region, 42u);
  EXPECT_DOUBLE_EQ(parsed.epsilon, 0.75);
}

TEST(SpecUploadMsgTest, RejectsTrailingBytes) {
  SpecUploadMsg msg;
  msg.safe_region = 1;
  msg.epsilon = 1.0;
  auto bytes = msg.Serialize();
  bytes.push_back(0x00);
  EXPECT_FALSE(SpecUploadMsg::Parse(bytes).ok());
}

TEST(RowAssignmentMsgTest, RoundTrip) {
  Rng rng(5);
  RowAssignmentMsg msg;
  msg.region = 7;
  msg.m = 100000;
  msg.row_index = 31337;
  msg.row_bits = BitVector(100);
  for (size_t i = 0; i < 100; ++i) msg.row_bits.Set(i, rng.Bernoulli(0.5));

  const auto bytes = msg.Serialize();
  const RowAssignmentMsg parsed = RowAssignmentMsg::Parse(bytes).value();
  EXPECT_EQ(parsed.region, 7u);
  EXPECT_EQ(parsed.m, 100000u);
  EXPECT_EQ(parsed.row_index, 31337u);
  EXPECT_EQ(parsed.row_bits, msg.row_bits);
}

TEST(RowAssignmentMsgTest, DownlinkSizeIsLinearInRegion) {
  // The paper's communication analysis: O(|tau|) bits per user downlink.
  RowAssignmentMsg small_msg, large_msg;
  small_msg.row_bits = BitVector(64);
  large_msg.row_bits = BitVector(64 * 16);
  const size_t small_size = small_msg.Serialize().size();
  const size_t large_size = large_msg.Serialize().size();
  EXPECT_GE(large_size - small_size, 15u * 8u);
}

TEST(RowAssignmentMsgTest, RejectsTruncation) {
  RowAssignmentMsg msg;
  msg.region = 3;
  msg.m = 64;
  msg.row_index = 5;
  msg.row_bits = BitVector(128);
  auto bytes = msg.Serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(RowAssignmentMsg::Parse(bytes).ok());
}

TEST(ReportMsgTest, RoundTripAndSize) {
  for (const bool positive : {true, false}) {
    ReportMsg msg;
    msg.positive = positive;
    const auto bytes = msg.Serialize();
    // O(1) uplink: exactly one byte.
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(ReportMsg::Parse(bytes).value().positive, positive);
  }
}

TEST(ReportMsgTest, RejectsMalformed) {
  EXPECT_FALSE(ReportMsg::Parse({}).ok());
  EXPECT_FALSE(ReportMsg::Parse(std::vector<uint8_t>{2}).ok());
  EXPECT_FALSE(ReportMsg::Parse(std::vector<uint8_t>{1, 0}).ok());
}

}  // namespace
}  // namespace pldp
