#ifndef PLDP_PROTOCOL_MESSAGES_H_
#define PLDP_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/taxonomy.h"
#include "util/bit_vector.h"
#include "util/status_or.h"

namespace pldp {

/// Client -> server: a user's public privacy specification (Algorithm 4,
/// lines 1-3). Contains no private data.
struct SpecUploadMsg {
  NodeId safe_region = kInvalidNode;
  double epsilon = 0.0;

  /// Appends the encoded message to `out`; Serialize() is the owned copy.
  void AppendTo(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;
  static StatusOr<SpecUploadMsg> Parse(std::span<const uint8_t> bytes);
};

/// Server -> client: the row of the JL matrix assigned to the user
/// (Algorithm 1, lines 6-7) plus the protocol context the client needs to
/// respond: the cluster's region node and the reduced dimension m. The packed
/// row dominates the size - O(|tau|) bits - matching the paper's per-user
/// downlink cost.
struct RowAssignmentMsg {
  NodeId region = kInvalidNode;
  uint64_t m = 0;
  uint64_t row_index = 0;
  BitVector row_bits;

  void AppendTo(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;
  static StatusOr<RowAssignmentMsg> Parse(std::span<const uint8_t> bytes);
};

/// Appends the fields of a RowAssignmentMsg that precede its packed row:
/// region, m, row index and the row's width in bits. The packed words follow
/// (BitVector::AppendBytes, or SignMatrix::AppendRowBytes straight from the
/// matrix), so every writer of the format shares this one header encoder.
void AppendRowAssignmentHeader(std::vector<uint8_t>* out, NodeId region,
                               uint64_t m, uint64_t row_index,
                               uint64_t width);

/// Client -> server: the sanitized bit (Algorithm 1, line 8). Only the sign
/// is transmitted; the magnitude c_eps * sqrt(m) is public (the server knows
/// eps and m), so the uplink is O(1) as in the paper.
struct ReportMsg {
  bool positive = false;

  void AppendTo(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;
  static StatusOr<ReportMsg> Parse(std::span<const uint8_t> bytes);
};

}  // namespace pldp

#endif  // PLDP_PROTOCOL_MESSAGES_H_
