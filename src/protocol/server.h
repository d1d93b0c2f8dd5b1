#ifndef PLDP_PROTOCOL_SERVER_H_
#define PLDP_PROTOCOL_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/psda.h"
#include "geo/taxonomy.h"
#include "protocol/accumulator.h"
#include "protocol/channel.h"
#include "protocol/checkpoint.h"
#include "protocol/client.h"
#include "util/status_or.h"

namespace pldp {

/// Communication and degradation accounting for one protocol execution. The
/// first block is byte-exact on the reliable path (identical to the original
/// lossless simulation); the second block is only non-zero under fault
/// injection, admission pressure, or crash recovery.
struct ProtocolStats {
  uint64_t bytes_to_clients = 0;
  uint64_t bytes_to_server = 0;
  uint64_t messages_to_clients = 0;
  uint64_t messages_to_server = 0;

  /// Clients that contributed no report: every early-exit path (lost or
  /// unparseable spec after all retries, refused assignment, lost or
  /// unparseable report after all retries) counts here exactly once. Always a
  /// utility loss, never a privacy loss.
  uint64_t dropped_clients = 0;

  /// Re-sent messages (spec re-polls plus row-assignment re-sends).
  uint64_t retries = 0;
  /// Messages the channel lost outright.
  uint64_t dropped_messages = 0;
  /// Messages whose simulated latency exceeded the deadline.
  uint64_t timeouts = 0;
  /// Deliveries cut off by a mid-transfer connection crash.
  uint64_t crashed_deliveries = 0;
  /// Delivered messages that failed to parse or validate (corruption,
  /// truncation).
  uint64_t corrupt_parses = 0;
  /// Assignments a device refused deterministically (region mismatch or
  /// re-perturb refusal); never retried.
  uint64_t refused_assignments = 0;
  /// Reports received more than once for the same user and discarded by the
  /// dedup rule (never double-counted).
  uint64_t duplicate_reports = 0;
  /// Reports refused by admission control before their exchange started.
  uint64_t shed_reports = 0;
  /// Reports recovered from a checkpoint instead of a fresh exchange.
  uint64_t restored_reports = 0;
  /// Clients whose spec upload was registered (phase-1 responders).
  uint64_t spec_responders = 0;
  /// Total simulated transport latency plus retry backoff (never slept).
  double simulated_latency_ms = 0.0;
  /// Wall-clock cost of loading and verifying the checkpoint on resume.
  double recovery_ms = 0.0;
  /// Factor applied to the final counts to compensate spec-phase dropout
  /// (total clients / spec responders); exactly 1 on the reliable path.
  double global_rescale = 1.0;
  /// One entry per cluster, in cluster order.
  std::vector<ClusterResponseStats> cluster_response;
};

bool operator==(const ProtocolStats& a, const ProtocolStats& b);

/// Folds one execution's ProtocolStats into the global metrics registry
/// (counters "protocol.*", response-rate histogram, rescale gauge). Collect
/// calls this itself; it is exposed for callers that replay recorded stats.
/// A no-op while the registry is disabled.
void PublishProtocolStats(const ProtocolStats& stats);

/// When and where the server persists durable epoch snapshots
/// (protocol/checkpoint.h). An empty `dir` disables checkpointing.
struct CheckpointPolicy {
  std::string dir;
  /// Snapshot after every N accepted reports (0 = only the final snapshot).
  uint64_t every_n_reports = 0;
  /// Snapshots retained in `dir`.
  uint64_t keep = 4;

  bool enabled() const { return !dir.empty(); }
};

/// Per-epoch execution options for RunEpoch / ResumeEpoch.
struct EpochRunOptions {
  /// Epoch number recorded in every snapshot; a resume refuses a checkpoint
  /// from a different epoch.
  uint64_t epoch = 0;
  CheckpointPolicy checkpoint;
  AdmissionConfig admission;
  /// Chaos hook: abort the run (Status::Aborted) as soon as this many total
  /// reports have been ingested, simulating a server crash mid-epoch.
  /// 0 disables. Partial stats are still written to the caller's out-param.
  uint64_t crash_after_ingests = 0;
};

/// The untrusted aggregation server of Figure 1, executing Algorithm 4 at the
/// message level: every interaction with a DeviceClient goes through the
/// serialized wire format so that ProtocolStats measures the real
/// communication cost (O(|tau|) bytes down, O(1) bytes up per user).
///
/// The computation is identical to RunPsda (grouping, Algorithm 3 clustering,
/// one PCEP per cluster, consistency post-processing); only the client
/// exchange differs. The server never touches a client's location or RNG.
///
/// A FaultSpec routes every exchange through a FaultyChannel. The server then
/// runs a bounded retry-with-backoff loop per client (devices answer
/// retransmissions from a cached report, so retries never re-perturb), dedups
/// duplicate reports, and keeps its estimates unbiased under
/// missing-completely-at-random dropout by rescaling each cluster's estimate
/// by n_expected / n_responded (and the final counts by the spec-phase
/// response rate). With the default (fault-free) spec the channel is inactive
/// and Collect is byte-identical to the lossless exchange.
///
/// Ingest runs through an EpochAccumulator (protocol/accumulator.h), the
/// same epoch state the net daemon drives: the server admits, exchanges and
/// stages each user in canonical order, folds into the O(m) per-cluster
/// accumulators at every checkpoint and at publish, and the whole epoch can
/// be checkpointed durably mid-flight and resumed after a crash without ever
/// double-counting a report (see docs/robustness.md).
class AggregationServer {
 public:
  /// `taxonomy` must outlive the server.
  AggregationServer(const SpatialTaxonomy* taxonomy, PsdaOptions options)
      : taxonomy_(taxonomy), options_(options) {}

  AggregationServer(const SpatialTaxonomy* taxonomy, PsdaOptions options,
                    FaultSpec fault_spec, RetryPolicy retry_policy = {})
      : taxonomy_(taxonomy),
        options_(options),
        fault_spec_(fault_spec),
        retry_policy_(retry_policy) {}

  const FaultSpec& fault_spec() const { return fault_spec_; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Runs the full protocol over `clients`. Client RNG state advances, so the
  /// vector is mutable. `stats` may be null. Returns DeadlineExceeded if
  /// every client dropped out during spec collection. Equivalent to RunEpoch
  /// with default EpochRunOptions (no checkpointing, no admission control).
  StatusOr<PsdaResult> Collect(std::vector<DeviceClient>* clients,
                               ProtocolStats* stats) const;

  /// Runs one epoch with checkpointing, admission control, and the chaos
  /// crash hook per `run`. On Status::Aborted (injected crash) the partial
  /// stats are still stored into `stats`, and any snapshots written so far
  /// remain on disk for ResumeEpoch.
  StatusOr<PsdaResult> RunEpoch(std::vector<DeviceClient>* clients,
                                const EpochRunOptions& run,
                                ProtocolStats* stats) const;

  /// Resumes a crashed epoch from the newest loadable snapshot in
  /// `run.checkpoint.dir`. The spec phase is skipped (the roster is part of
  /// the snapshot); the ingest loop replays deterministically, skipping the
  /// exchange for every user whose report the snapshot already contains —
  /// devices answer the remaining exchanges from their cached reports, so on
  /// a clean channel the recovered estimates are bit-identical to an
  /// uninterrupted run. Fails FailedPrecondition when the snapshot does not
  /// match this configuration (EpochAccumulator::Restore).
  StatusOr<PsdaResult> ResumeEpoch(std::vector<DeviceClient>* clients,
                                   const EpochRunOptions& run,
                                   ProtocolStats* stats) const;

 private:
  StatusOr<PsdaResult> Execute(std::vector<DeviceClient>* clients,
                               const EpochRunOptions& run,
                               const EpochCheckpoint* restored,
                               double restore_ms, ProtocolStats* stats) const;

  const SpatialTaxonomy* taxonomy_;
  PsdaOptions options_;
  FaultSpec fault_spec_;
  RetryPolicy retry_policy_;
};

}  // namespace pldp

#endif  // PLDP_PROTOCOL_SERVER_H_
