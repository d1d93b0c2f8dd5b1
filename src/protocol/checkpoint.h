#ifndef PLDP_PROTOCOL_CHECKPOINT_H_
#define PLDP_PROTOCOL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/privacy_spec.h"
#include "geo/taxonomy.h"
#include "util/status_or.h"

namespace pldp {

/// Checkpointable state of one cluster's accumulator
/// (protocol/accumulator.h); the payload serialized per cluster.
struct ClusterAccumulatorState {
  uint32_t cluster_index = 0;
  NodeId region = kInvalidNode;
  uint64_t tau_size = 0;
  uint64_t n_expected = 0;
  uint64_t m = 0;
  uint64_t num_reports = 0;
  uint64_t n_responded = 0;
  uint64_t n_shed = 0;
  double varsigma_responded = 0.0;
  /// Sparse accumulator snapshot: touched rows in first-touch order with
  /// their current sums. Order matters — decode streams rows in touch order,
  /// and restoring it exactly keeps recovery bit-identical.
  std::vector<uint64_t> touched_rows;
  std::vector<double> touched_values;
};

/// Durable snapshot of one in-flight aggregation epoch: everything the
/// server needs to resume collection after a crash without re-running the
/// spec phase and, critically, without ever double-counting a report.
///
/// On-disk format (version 1):
///
///   magic "PLDPCKP1" | fixed32 version | fixed32 section_count
///   section*: fixed32 id | fixed64 payload_len | fixed32 crc32c | payload
///
/// Every section payload carries its own CRC32C, so a torn write, a
/// truncated file, or bit rot in any byte is detected before a single field
/// is trusted. Decoding rejects — with a clean Status, never a crash —
/// unknown magic, unsupported versions, length overruns, CRC mismatches,
/// duplicate or missing sections, and semantic inconsistencies (counters
/// that contradict each other, rows out of range).
struct EpochCheckpoint {
  /// Identity: which epoch of which seeded run this snapshot belongs to.
  uint64_t epoch = 0;
  uint64_t psda_seed = 0;
  double beta = 0.0;

  /// Spec-phase output: the registered responders. Grouping and clustering
  /// are deterministic functions of these, so they are recomputed on
  /// restore rather than stored.
  uint64_t cohort_size = 0;
  std::vector<PrivacySpec> specs;
  std::vector<uint32_t> roster;

  /// Epoch-wide dedup bitset (cohort_size bits packed into words, bit u for
  /// user id u): whose reports are already folded into the accumulators.
  std::vector<uint64_t> dedup_words;

  /// Per-cluster accumulator snapshots, in cluster order.
  std::vector<ClusterAccumulatorState> clusters;

  /// Reports ingested when the snapshot was taken (progress marker).
  uint64_t ingested = 0;
};

inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr char kCheckpointMagic[9] = "PLDPCKP1";

/// Serializes / parses the binary snapshot format above. Decode never reads
/// past `len` and never trusts a length field before bounds-checking it.
std::vector<uint8_t> EncodeCheckpoint(const EpochCheckpoint& checkpoint);
StatusOr<EpochCheckpoint> DecodeCheckpoint(const uint8_t* data, size_t len);
StatusOr<EpochCheckpoint> DecodeCheckpoint(const std::vector<uint8_t>& bytes);

/// Durably writes `bytes` to `path`: write to `<path>.tmp`, fsync the file,
/// atomically rename over `path`, fsync the directory. A crash at any point
/// leaves either the old file or the new one, never a torn mix.
Status WriteFileDurable(const std::string& path,
                        const std::vector<uint8_t>& bytes);

/// Encode + WriteFileDurable in one step.
Status WriteCheckpointFile(const std::string& path,
                           const EpochCheckpoint& checkpoint);

/// Reads and fully verifies one checkpoint file.
StatusOr<EpochCheckpoint> ReadCheckpointFile(const std::string& path);

/// Manages a directory of numbered checkpoint files
/// (ckpt-<seq>.pldp). Save always writes a fresh sequence number (never
/// overwrites in place), prunes old snapshots past the retention limit, and
/// RestoreLatest walks newest-to-oldest past corrupt or torn files to the
/// most recent snapshot that verifies.
class CheckpointStore {
 public:
  /// `keep` >= 1 snapshots are retained after every Save.
  explicit CheckpointStore(std::string dir, uint64_t keep = 4);

  const std::string& dir() const { return dir_; }

  /// Writes the next snapshot durably. Creates the directory on first use.
  Status Save(const EpochCheckpoint& checkpoint);

  /// Loads the newest verifiable snapshot, skipping (and logging) corrupt
  /// files. NotFound when the directory holds no loadable snapshot.
  StatusOr<EpochCheckpoint> RestoreLatest();

  /// Checkpoint file paths in ascending sequence order.
  std::vector<std::string> ListFiles() const;

 private:
  Status EnsureDirAndScan();

  std::string dir_;
  uint64_t keep_;
  bool scanned_ = false;
  uint64_t next_seq_ = 1;
};

}  // namespace pldp

#endif  // PLDP_PROTOCOL_CHECKPOINT_H_
