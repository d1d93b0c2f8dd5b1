#ifndef PLDP_NET_EPOCH_ENGINE_H_
#define PLDP_NET_EPOCH_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/psda.h"
#include "geo/taxonomy.h"
#include "net/wire.h"
#include "protocol/accumulator.h"
#include "protocol/checkpoint.h"
#include "protocol/server.h"
#include "util/status_or.h"

namespace pldp {
namespace net {

/// Configuration of one socket-served aggregation epoch.
struct EpochEngineOptions {
  /// Protocol parameters; `psda.seed` drives every server-side random draw
  /// exactly as it does for AggregationServer::RunEpoch.
  PsdaOptions psda;

  /// Epoch number stamped into checkpoints; a restore refuses snapshots from
  /// a different epoch.
  uint64_t epoch = 0;

  /// Durable snapshots (empty dir disables). The final snapshot is written
  /// at epoch seal before decode; Checkpoint() can be called any time after
  /// the spec seal (the graceful-SIGTERM path).
  CheckpointPolicy checkpoint;

  /// Arrival-time admission control: a report refused here is never staged
  /// and the cluster's n/n_resp rescale compensates it like a dropout.
  AdmissionConfig admission;
};

/// Aggregate frame/report accounting of one engine lifetime.
struct NetEpochStats {
  uint64_t specs_accepted = 0;
  uint64_t specs_duplicate = 0;
  uint64_t specs_invalid = 0;
  uint64_t reports_staged = 0;
  /// Staged reports folded into the accumulators so far (at seal, or by a
  /// mid-epoch checkpoint fold). Monotone within one engine lifetime.
  uint64_t reports_folded = 0;
  uint64_t reports_duplicate = 0;
  uint64_t reports_shed = 0;
  /// kReport frames that arrived after the epoch seal. Never ingested; the
  /// publish-time rescale already compensated their absence, so counting
  /// (not folding) them is what keeps the published estimate unbiased.
  uint64_t late_frames = 0;
  uint64_t unknown_user_frames = 0;
  uint64_t wrong_phase_frames = 0;
  /// Reports restored from a checkpoint rather than received on a socket.
  uint64_t restored_reports = 0;
  uint64_t checkpoints_written = 0;
};

/// Verdict of RegisterSpec.
enum class SpecOutcome : uint8_t {
  kAccepted = 0,
  /// Same user id already registered this epoch (idempotent).
  kDuplicate = 1,
  /// The spec failed validation (bogus region or non-representable epsilon);
  /// dropped exactly like a corrupt upload in the in-process protocol.
  kInvalid = 2,
  kWrongPhase = 3,
};

/// The server-side brain of the aggregation daemon: one epoch of Algorithm 4
/// driven by decoded wire frames instead of in-process exchanges.
///
/// The engine is a frame adapter around the EpochAccumulator that
/// AggregationServer::Execute also drives (protocol/accumulator.h): it keeps
/// the phase, the wire verdicts, the lock, metrics and flight-recorder
/// events, and delegates the plan, the row assignments, staging, the fold,
/// snapshots and publish. Reports are staged on arrival (O(1) per report)
/// and folded in canonical roster order at seal time, so a SealEpoch over
/// the same report multiset publishes estimates bit-identical to RunEpoch
/// over the same cohort, whatever the arrival order (regression-tested in
/// tests/net_epoch_engine_test.cc). Runs that checkpoint mid-epoch and
/// resume fold in more than one batch, which reassociates sums: those
/// publish within the Theorem 4.5 envelope instead (same contract as chaos
/// recovery under faults).
///
/// All public methods are thread-safe. The I/O threads of net/server.h call
/// straight into the engine for every frame except the two seals, which
/// NetServer runs on its seal thread. A seal holds `mu_` only to enter and to
/// leave the kSealing phase; the O(cohort) work in between (the roster sort,
/// Algorithm 3 clustering, the fold, the checkpoint, decode and publish) runs
/// without it. While the phase is kSealing no other method touches `epoch_`,
/// so a status read never waits on seal work, and the frames that would need
/// it get defined verdicts: a spec upload is kWrongPhase, a report is
/// kWrongPhase during the spec seal and kLate during the epoch seal, and
/// Assignment, Checkpoint and another seal fail with FailedPrecondition.
class EpochEngine {
 public:
  enum class Phase : uint8_t {
    kCollectingSpecs = 0,
    kCollectingReports = 1,
    kPublished = 2,
    /// A SealSpecs or SealEpoch is running; it leaves for the next phase, or
    /// for the one it came from when it fails.
    kSealing = 3,
  };

  /// `taxonomy` must outlive the engine.
  EpochEngine(const SpatialTaxonomy* taxonomy, EpochEngineOptions options);

  Phase phase() const;
  const EpochEngineOptions& options() const { return options_; }

  /// Registers one user's public spec (phase kCollectingSpecs only).
  SpecOutcome RegisterSpec(uint64_t user_id, const SpecUploadMsg& msg);

  /// Ends the spec phase: sorts the roster and seals the epoch (groups,
  /// clusters, accumulators, every row assignment). `cohort_size` is
  /// the full population (registered users must have ids below it); the
  /// publish-time global rescale is cohort_size / responders, matching the
  /// in-process spec-dropout compensation. On failure the engine is back in
  /// kCollectingSpecs with its registered specs.
  Status SealSpecs(uint64_t cohort_size);

  /// The row assignment of a sealed user (phase kCollectingReports or
  /// kPublished; FailedPrecondition otherwise). NotFound for users outside
  /// the roster.
  StatusOr<RowAssignmentMsg> Assignment(uint64_t user_id) const;

  /// Appends the sealed user's RowAssignmentMsg bytes to `out` (the
  /// kRowAssignment reply body, encoded in place). Refuses exactly as
  /// Assignment does, and then appends nothing.
  Status AppendAssignment(uint64_t user_id, std::vector<uint8_t>* out) const;

  /// Stages one sanitized report. Never blocks on the accumulators; the
  /// outcome is the wire-level verdict carried in kReportAck.
  ReportOutcome SubmitReport(uint64_t user_id, const ReportMsg& msg);

  /// Folds all staged reports, writes the final checkpoint when configured,
  /// and publishes (EpochAccumulator::Publish). A retry after publish is OK;
  /// on failure the engine is back in kCollectingReports.
  Status SealEpoch();

  /// Folds what has been staged so far and writes a durable snapshot (the
  /// graceful-shutdown path). FailedPrecondition before the spec seal or
  /// during a seal; InvalidArgument when checkpointing is disabled.
  Status Checkpoint();

  /// Restores a sealed-spec epoch from the newest loadable snapshot, which
  /// also sets the cohort size. Must be called on a fresh engine (no specs
  /// registered); after it returns the engine is in kCollectingReports with
  /// the snapshot's reports already folded and deduplicated. Refuses a
  /// snapshot as EpochAccumulator::Restore does.
  Status RestoreLatest();

  /// Published per-cell estimates; empty before SealEpoch.
  const std::vector<double>& published() const;

  /// Per-cluster delivery accounting, filled by SealEpoch (decode order).
  const std::vector<ClusterResponseStats>& cluster_response() const;

  NetEpochStats stats() const;
  uint64_t num_clusters() const;
  uint64_t spec_responders() const;
  uint64_t cohort_size() const;

  /// One consistent view of everything a status frame reports, read under a
  /// single short lock acquisition (phase/stats/published_cells from
  /// separate accessors could tear across a seal's commit). It reads only
  /// fields a seal sets at commit, never `epoch_`, so it answers during a
  /// seal.
  struct StatusView {
    Phase phase = Phase::kCollectingSpecs;
    NetEpochStats stats;
    uint64_t num_clusters = 0;
    uint64_t spec_responders = 0;
    uint64_t cohort_size = 0;
    uint64_t published_cells = 0;
  };
  StatusView StatusSnapshot() const;

 private:
  /// Sorts the registered ids into the roster and seals `epoch_`. Touches
  /// no guarded field, so it runs without mu_ during kSealing.
  Status SealRoster(const std::unordered_map<uint64_t, PrivacySpec>& specs,
                    uint64_t cohort_size);

  /// The slot of a sealed user, or the refusal Assignment returns; caller
  /// holds mu_.
  StatusOr<uint32_t> SealedSlotLocked(uint64_t user_id) const;

  /// Folds what is staged and writes a durable snapshot of `epoch_`. Caller
  /// holds mu_, or runs a seal; either way nothing else touches `epoch_`.
  Status FoldAndSave();

  /// Counts a snapshot FoldAndSave wrote; caller holds mu_.
  void NoteCheckpointLocked();

  EpochEngineOptions options_;

  mutable std::mutex mu_;
  Phase phase_ = Phase::kCollectingSpecs;
  /// The phase the running seal left; meaningful only during kSealing.
  Phase sealed_from_ = Phase::kCollectingSpecs;
  NetEpochStats stats_;

  /// Spec phase: user id -> spec, arrival order irrelevant.
  std::unordered_map<uint64_t, PrivacySpec> pending_specs_;

  /// Set when a seal or restore commits, so status reads never touch
  /// `epoch_`.
  uint64_t num_clusters_ = 0;
  uint64_t spec_responders_ = 0;
  uint64_t cohort_size_ = 0;

  /// Everything from the spec seal to publish. Guarded by mu_, except during
  /// kSealing, when only the seal touches it.
  EpochAccumulator epoch_;

  std::vector<double> published_;
  std::vector<ClusterResponseStats> cluster_response_;
};

}  // namespace net
}  // namespace pldp

#endif  // PLDP_NET_EPOCH_ENGINE_H_
