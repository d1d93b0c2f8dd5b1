#ifndef PLDP_PROTOCOL_SERIALIZATION_H_
#define PLDP_PROTOCOL_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/status_or.h"

namespace pldp {

/// Little-endian fixed-width integers at a raw position: the one fixed-width
/// codec, shared by Writer, Reader and the frame header, which is patched in
/// place once its body is written.
inline void StoreFixed32(uint8_t* at, uint32_t value) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<uint8_t>(value >> (8 * i));
}

inline void StoreFixed64(uint8_t* at, uint64_t value) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<uint8_t>(value >> (8 * i));
}

inline uint32_t LoadFixed32(const uint8_t* at) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(at[i]) << (8 * i);
  return value;
}

inline uint64_t LoadFixed64(const uint8_t* at) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(at[i]) << (8 * i);
  return value;
}

/// Minimal byte-level codec used by the protocol simulation so that the
/// communication-cost accounting (Section IV-A: O(|tau|) bits down, O(1) bits
/// up per user) reflects real message sizes, not C++ object sizes.
///
/// Varints are LEB128; doubles are little-endian IEEE-754 bit patterns.
///
/// A Writer either fills a buffer of its own (bytes()) or appends to a
/// caller's vector, so the wire path can encode a message straight into a
/// connection's write buffer without an intermediate vector. Either way it
/// only ever appends.
class Writer {
 public:
  Writer() : out_(&owned_) {}
  /// Appends to `*out`, which must outlive the writer.
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  // out_ may point into the writer itself.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void PutVarint64(uint64_t value) {
    while (value >= 0x80) {
      out_->push_back(static_cast<uint8_t>(value) | 0x80);
      value >>= 7;
    }
    out_->push_back(static_cast<uint8_t>(value));
  }

  void PutDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    PutFixed64(bits);
  }

  void PutByte(uint8_t value) { out_->push_back(value); }

  /// Fixed-width little-endian integers, used where a reader must be able to
  /// validate structure before trusting any content (checkpoint headers).
  void PutFixed32(uint32_t value) { StoreFixed32(Grow(4), value); }

  void PutFixed64(uint64_t value) { StoreFixed64(Grow(8), value); }

  void PutRaw(const uint8_t* data, size_t len) {
    out_->insert(out_->end(), data, data + len);
  }

  std::vector<uint8_t>& bytes() { return *out_; }
  const std::vector<uint8_t>& bytes() const { return *out_; }

 private:
  /// Extends the buffer by `len` bytes and returns the first of them.
  uint8_t* Grow(size_t len) {
    const size_t offset = out_->size();
    out_->resize(offset + len);
    return out_->data() + offset;
  }

  std::vector<uint8_t> owned_;
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(std::span<const uint8_t> bytes)
      : Reader(bytes.data(), bytes.size()) {}

  StatusOr<uint64_t> GetVarint64() {
    uint64_t value = 0;
    int shift = 0;
    while (pos_ < len_ && shift <= 63) {
      const uint8_t byte = data_[pos_++];
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
    return Status::InvalidArgument("truncated or overlong varint");
  }

  StatusOr<double> GetDouble() {
    if (len_ - pos_ < sizeof(uint64_t)) {
      return Status::InvalidArgument("truncated double");
    }
    const uint64_t bits = LoadFixed64(data_ + pos_);
    pos_ += sizeof(bits);
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  StatusOr<uint8_t> GetByte() {
    if (pos_ >= len_) return Status::InvalidArgument("truncated byte");
    return data_[pos_++];
  }

  StatusOr<uint32_t> GetFixed32() {
    if (len_ - pos_ < 4) return Status::InvalidArgument("truncated fixed32");
    const uint32_t value = LoadFixed32(data_ + pos_);
    pos_ += 4;
    return value;
  }

  StatusOr<uint64_t> GetFixed64() {
    if (len_ - pos_ < 8) return Status::InvalidArgument("truncated fixed64");
    const uint64_t value = LoadFixed64(data_ + pos_);
    pos_ += 8;
    return value;
  }

  const uint8_t* Remaining() const { return data_ + pos_; }
  size_t RemainingSize() const { return len_ - pos_; }
  std::span<const uint8_t> Rest() const {
    return {Remaining(), RemainingSize()};
  }
  void Skip(size_t n) { pos_ += std::min(n, RemainingSize()); }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace pldp

#endif  // PLDP_PROTOCOL_SERIALIZATION_H_
