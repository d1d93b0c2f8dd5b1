#ifndef PLDP_PROTOCOL_ACCUMULATOR_H_
#define PLDP_PROTOCOL_ACCUMULATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pcep.h"
#include "core/psda.h"
#include "geo/taxonomy.h"
#include "protocol/checkpoint.h"
#include "protocol/messages.h"
#include "util/status_or.h"

namespace pldp {

/// Admission control for the server's ingest path. The model is a virtual
/// bounded queue in front of the accumulators: every report is one arrival,
/// the server drains `service_per_arrival` reports' worth of work between
/// arrivals, and a report is shed (refused, never exchanged) when admitting
/// it would overflow the queue or blow the deadline budget. Everything is
/// deterministic — no randomness, no wall clock — so a seeded run sheds the
/// same reports every time.
///
/// Shedding is graceful degradation, not failure: a shed report is accounted
/// exactly like a dropped-out user, so the existing n/n_resp rescaling keeps
/// the estimator unbiased and the Theorem 4.5 bound re-evaluated at n_resp
/// still describes the published estimate.
struct AdmissionConfig {
  /// Maximum virtual queue depth; 0 disables the depth check.
  uint64_t max_queue_depth = 0;

  /// Reports' worth of service capacity freed per arrival. Values >= 1 mean
  /// the server keeps up and the queue never grows; 1 - service_per_arrival
  /// is the steady-state shed fraction under overload (e.g. 0.8 sheds ~20%).
  double service_per_arrival = 1.0;

  /// Simulated service cost of one queued report, used with
  /// `deadline_budget_ms` to shed reports whose projected queueing delay
  /// would exceed the epoch's latency budget.
  double per_report_service_ms = 0.0;

  /// Shed a report when backlog * per_report_service_ms would exceed this;
  /// 0 disables the deadline check.
  double deadline_budget_ms = 0.0;

  bool enabled() const {
    return max_queue_depth > 0 || deadline_budget_ms > 0.0;
  }
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  /// One report arrives; returns true when it is admitted, false when shed.
  /// With admission disabled this always admits.
  bool Admit();

  uint64_t admitted() const { return admitted_; }
  uint64_t shed() const { return shed_; }
  double backlog() const { return backlog_; }
  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  double backlog_ = 0.0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
};

/// One cluster's streaming ingest state: the PCEP accumulator z (O(m)
/// memory) plus response accounting. Reports are folded in one at a time;
/// nothing about the cohort is materialized.
class ClusterAccumulator {
 public:
  static StatusOr<ClusterAccumulator> Create(uint32_t cluster_index,
                                             NodeId region, uint64_t tau_size,
                                             uint64_t n_expected,
                                             const PcepParams& params);

  uint32_t cluster_index() const { return cluster_index_; }
  NodeId region() const { return region_; }
  uint64_t n_expected() const { return n_expected_; }
  uint64_t n_responded() const { return n_responded_; }
  uint64_t n_shed() const { return n_shed_; }
  double varsigma_responded() const { return varsigma_responded_; }

  const PcepServer& pcep() const { return pcep_; }

  /// Folds one sanitized report into z. The caller is responsible for
  /// epoch-level duplicate suppression (EpochAccumulator).
  void IngestReport(uint64_t row, double value, double varsigma_term);

  /// Books one report shed by admission control (never exchanged, never
  /// accumulated; compensated by rescaling like any non-responder).
  void RecordShed() { ++n_shed_; }

  /// Decodes the per-location estimates of everything ingested so far.
  std::vector<double> Estimate() const { return pcep_.Estimate(); }

  ClusterAccumulatorState Snapshot() const;

  /// Restores a snapshot into this freshly created accumulator. Fails on any
  /// shape mismatch (wrong m, out-of-range rows, duplicate rows, counter
  /// inconsistencies) so a corrupt checkpoint can never be half-applied.
  Status Restore(const ClusterAccumulatorState& state);

 private:
  ClusterAccumulator(uint32_t cluster_index, NodeId region,
                     uint64_t n_expected, PcepServer pcep)
      : cluster_index_(cluster_index),
        region_(region),
        n_expected_(n_expected),
        pcep_(std::move(pcep)) {}

  uint32_t cluster_index_;
  NodeId region_;
  uint64_t n_expected_;
  PcepServer pcep_;
  uint64_t n_responded_ = 0;
  uint64_t n_shed_ = 0;
  double varsigma_responded_ = 0.0;
};

/// One epoch of Algorithm 4 from the spec seal to publish, shared by the
/// in-process AggregationServer and the net daemon's EpochEngine: the spec
/// acceptance rule, the ascending roster and the seal (PlanEpoch), one
/// ClusterAccumulator per cluster, every user's row assignment, per-slot
/// admission, staging and dedup, the canonical fold, snapshot and restore,
/// and publish (PublishEpoch).
///
/// A slot is a roster position: slot k belongs to user roster()[k]. Reports
/// are staged per slot and folded into the cluster accumulators in canonical
/// order — each cluster's groups in cluster order, then each group's
/// members — never in arrival order, because floating-point accumulation
/// order is part of the determinism contract. A caller that stages in canonical order (the in-process server)
/// therefore folds the same sums whether it folds once or at every
/// checkpoint; one that stages in arrival order (the daemon) gets the same
/// bits from one fold over the same reports.
///
/// This is the unit the checkpoint subsystem snapshots and restores: every
/// folded report's dedup bit travels with the accumulator sums, so a restart
/// can never double-count a report. Not thread-safe; the daemon serializes
/// calls under its own lock.
class EpochAccumulator {
 public:
  enum class Verdict : uint8_t { kAccepted, kDuplicate, kShed };

  /// `taxonomy` must outlive the accumulator. `psda` fixes the plan and the
  /// checkpoint identity together with `epoch`.
  EpochAccumulator(const SpatialTaxonomy* taxonomy, const PsdaOptions& psda,
                   uint64_t epoch, const AdmissionConfig& admission);

  /// The spec acceptance rule. A spec that fails validation must not poison
  /// the grouping, and an epsilon whose debiasing constant c_eps is not
  /// finite (a bit-flipped upload can be finite yet outside c_eps's range)
  /// would turn every count of its cluster into NaN.
  Status AcceptSpec(const PrivacySpec& spec) const;

  /// Ends the spec phase, replacing any earlier state: `roster` lists the
  /// registered user ids, strictly ascending and below `cohort_size`
  /// (InvalidArgument otherwise); `specs[k]` is roster[k]'s accepted spec.
  /// Groups the specs, plans the epoch, builds the accumulators, and replays
  /// each cluster's row-assignment stream over its slots in canonical order.
  Status Seal(std::vector<uint32_t> roster, std::vector<PrivacySpec> specs,
              uint64_t cohort_size);

  /// Replaces this accumulator's state with a snapshot. Refuses with
  /// FailedPrecondition a snapshot of another epoch, seed, beta or cohort
  /// size, a roster that is not strictly ascending inside the cohort, a spec
  /// the acceptance rule refuses, a cluster count this configuration does
  /// not build, and dedup words that do not name roster members; a cluster
  /// snapshot that does not fit its accumulator fails as
  /// ClusterAccumulator::Restore does.
  Status Restore(const EpochCheckpoint& checkpoint, uint64_t cohort_size);

  /// The folded state as a durable snapshot; staged reports are not in it.
  EpochCheckpoint Snapshot() const;

  uint64_t cohort_size() const { return cohort_size_; }
  const std::vector<uint32_t>& roster() const { return roster_; }
  const std::vector<UserGroup>& groups() const { return groups_; }
  const EpochPlan& plan() const { return plan_; }
  size_t num_clusters() const { return clusters_.size(); }
  const ClusterAccumulator& cluster(size_t c) const { return clusters_[c]; }
  const AdmissionController& admission() const { return admission_; }

  /// The slot of `user`, or nullopt when the user is not in the roster.
  std::optional<uint32_t> SlotOf(uint64_t user) const;

  /// Appends the RowAssignmentMsg bytes of the slot's row assignment to
  /// `out`, straight from the cluster's sign matrix. The daemon's replies
  /// and the in-process downlink are both written by this one encoder.
  void AppendAssignment(uint32_t slot, std::vector<uint8_t>* out) const;

  /// The same assignment in structured form (tests compare against it).
  RowAssignmentMsg Assignment(uint32_t slot) const;

  /// True when the slot's report is already restored, staged or folded, or
  /// was shed.
  bool Seen(uint32_t slot) const;

  /// Decides a slot's report before it is exchanged. kDuplicate: the slot is
  /// Seen and nothing changes. kShed: admission control refused it, and the
  /// shed is booked against the slot's cluster. kAccepted: stage the report
  /// once it arrives.
  Verdict Admit(uint32_t slot);

  /// Stages an admitted slot's report for the next fold.
  void Stage(uint32_t slot, bool positive);

  /// Folds every staged report (magnitude c_eps * sqrt(m)), in parallel over
  /// clusters on the shared pool.
  void Fold();

  /// Reports restored, staged or folded (the checkpoint cadence and the
  /// chaos crash points count these).
  uint64_t total_ingested() const { return restored_ + staged_ + folded_; }
  uint64_t restored() const { return restored_; }
  uint64_t folded() const { return folded_; }

  /// Folds, decodes every cluster in parallel, and publishes.
  StatusOr<PsdaResult> Publish();

 private:
  enum class SlotState : uint8_t {
    kNone = 0,
    kStaged = 1,
    kShed = 2,
    kFolded = 3,
    /// Folded by a restored checkpoint, not by this process.
    kRestored = 4,
  };

  struct Slot {
    uint64_t row = 0;
    uint32_t cluster = 0;
    SlotState state = SlotState::kNone;
    bool positive = false;
  };

  const SpatialTaxonomy* taxonomy_;
  PsdaOptions psda_;
  uint64_t epoch_;
  AdmissionController admission_;

  uint64_t cohort_size_ = 0;
  std::vector<uint32_t> roster_;
  std::vector<PrivacySpec> specs_;
  std::vector<UserGroup> groups_;
  EpochPlan plan_;
  std::vector<ClusterAccumulator> clusters_;
  std::vector<Slot> slots_;
  uint64_t restored_ = 0;
  uint64_t staged_ = 0;
  uint64_t folded_ = 0;
};

}  // namespace pldp

#endif  // PLDP_PROTOCOL_ACCUMULATOR_H_
