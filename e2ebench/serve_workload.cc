// serve_road / serve_checkin: one loopback daemon epoch per timed epoch.
//
// The daemon (NetServer + EpochEngine, 1 I/O thread) runs in this process.
// The load is a closed loop over one report connection with at most 64
// frames outstanding, uploading specs, fetching row assignments and sending
// reports exactly as pldp_loadgen's batched path does. A second connection
// sends a stats frame every 10 ms from the first spec until the estimates
// are fetched and records how long each answer took. Every thread of the
// workload runs on one CPU (see PinToOneCpu). Each epoch's published
// estimates must equal the in-process AggregationServer::Collect run over
// the same cohort and protocol seed bit for bit.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iostream>
#include <thread>

#include "bench.h"
#include "core/clustering.h"
#include "core/pcep_encode.h"
#include "core/user_group.h"
#include "net/client.h"
#include "net/epoch_engine.h"
#include "net/server.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pldp {
namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using net::NetClient;

constexpr unsigned kWindow = 64;
constexpr unsigned kIoThreads = 1;
constexpr auto kProbeInterval = std::chrono::milliseconds(10);
constexpr double kBeta = 0.1;
constexpr char kLoopback[] = "127.0.0.1";

/// Runs the calling thread, and every thread it starts from then on (the
/// daemon's I/O thread, the probe, the shared pool), on one CPU: the last
/// one it may run on. Handing a frame to a thread on another CPU of the
/// shared virtual machine waits for the host to run that CPU. Spread over
/// the 4 cores, the same epoch took from 1.6 to 6 s within minutes, because
/// those waits came and went with the host's load; on one CPU the cost of a
/// frame is the CPU work it takes (README.md, "Noise").
Status PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::Internal(std::string("sched_getaffinity: ") +
                            std::strerror(errno));
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return Status::Internal("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    return Status::Internal(std::string("sched_setaffinity: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Epochs cycle through this many protocol seeds. On serve_road one draw of
/// the protocol's noise moves est_kl by about a third from seed to seed, so
/// est_kl averages over the draws.
constexpr size_t kProtocolSeeds = 4;

/// Protocol seed of the epoch with this index. The first draw is --seed
/// itself, so that at --seed 2016 it is pldp_loadgen's epoch.
uint64_t ProtocolSeed(uint64_t seed, size_t epoch) {
  const size_t draw = epoch % kProtocolSeeds;
  return draw == 0 ? seed : SplitMix64(seed + draw);
}

/// Per-user device seed shared with pldp_loadgen and the protocol tests, so
/// the wire cohort and the in-process cohort perturb identically.
uint64_t DeviceSeed(uint64_t root_seed, uint64_t user) {
  return SplitMix64(root_seed ^ (user + 1));
}

/// Everything one daemon epoch measured.
struct EpochRecord {
  double daemon_setup_s = 0.0;
  double epoch_s = 0.0;
  double report_phase_s = 0.0;
  double epoch_cpu_s = 0.0;
  CpuTimes report_cpu;
  double peak_rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reports_accepted = 0;
  /// Traced epochs only: BatchKeepDecisions time and send-to-ack latencies.
  double encode_s = 0.0;
  std::vector<double> ack_ms;
  std::vector<double> probe_ms;
  net::NetServerStats server;
  net::NetEpochStats engine;
  std::vector<double> published;
};

/// Pipelined spec upload of every user.
Status UploadSpecs(const Cohort& cohort, NetClient* client,
                   EpochRecord* out) {
  unsigned outstanding = 0;
  auto read_ack = [&]() -> Status {
    PLDP_ASSIGN_OR_RETURN(const bool accepted, client->ReadSpecAck());
    if (!accepted) ++out->failed;
    --outstanding;
    return Status::OK();
  };
  for (uint64_t user = 0; user < cohort.users.size(); ++user) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.users[user].spec.safe_region;
    msg.epsilon = cohort.users[user].spec.epsilon;
    PLDP_RETURN_IF_ERROR(client->SendSpecNoWait(user, msg));
    ++out->attempted;
    ++outstanding;
    while (outstanding >= kWindow) PLDP_RETURN_IF_ERROR(read_ack());
  }
  while (outstanding > 0) PLDP_RETURN_IF_ERROR(read_ack());
  return Status::OK();
}

/// Every user in window-sized chunks: pipelined row requests, the batched
/// device-side perturbation, pipelined reports.
Status ReportUsers(const Cohort& cohort, uint64_t seed, bool traced,
                   NetClient* client, EpochRecord* out) {
  const SpatialTaxonomy& taxonomy = cohort.taxonomy;
  std::deque<Clock::time_point> pending;
  std::vector<uint8_t> signs;
  std::vector<uint8_t> keep;
  std::vector<double> epsilons;

  auto drain_one = [&]() -> Status {
    PLDP_ASSIGN_OR_RETURN(const net::ReportOutcome outcome,
                          client->ReadReportAck());
    if (traced) out->ack_ms.push_back(MillisSince(pending.front()));
    pending.pop_front();
    if (outcome == net::ReportOutcome::kAccepted) {
      ++out->reports_accepted;
    } else {
      ++out->failed;
    }
    return Status::OK();
  };

  const uint64_t n = cohort.users.size();
  for (uint64_t base = 0; base < n;) {
    const uint64_t end = std::min<uint64_t>(base + kWindow, n);
    for (uint64_t user = base; user < end; ++user) {
      PLDP_RETURN_IF_ERROR(client->SendRowRequestNoWait(user));
      ++out->attempted;
    }
    // Answers are FIFO per connection: the previous chunk's acks come first.
    while (!pending.empty()) PLDP_RETURN_IF_ERROR(drain_one());

    signs.clear();
    epsilons.clear();
    for (uint64_t user = base; user < end; ++user) {
      PLDP_ASSIGN_OR_RETURN(const RowAssignmentMsg assignment,
                            client->ReadAssignment());
      const UserRecord& record = cohort.users[user];
      if (assignment.region >= taxonomy.num_nodes() ||
          !taxonomy.Contains(assignment.region, record.spec.safe_region) ||
          assignment.row_bits.size() != taxonomy.RegionSize(assignment.region) ||
          assignment.m == 0) {
        return Status::Internal("invalid row assignment for user " +
                                std::to_string(user));
      }
      PLDP_ASSIGN_OR_RETURN(
          const uint64_t rank,
          taxonomy.RegionRankOfCell(assignment.region, record.cell));
      signs.push_back(assignment.row_bits.Get(rank) ? 1 : 0);
      epsilons.push_back(record.spec.epsilon);
    }
    keep.assign(signs.size(), 0);
    const Clock::time_point encode_start = Clock::now();
    // Users of a chunk are consecutive, and DeviceSeed(seed, user) is
    // SeedSchedule{seed, 1} at index `user`, so the batched kernel makes
    // each device's first Bernoulli draw.
    PLDP_RETURN_IF_ERROR(BatchKeepDecisions(SeedSchedule{seed, 1}, base,
                                            epsilons.data(), keep.size(),
                                            keep.data()));
    if (traced) out->encode_s += MillisSince(encode_start) / 1e3;

    for (size_t k = 0; k < signs.size(); ++k) {
      ReportMsg report;
      report.positive = signs[k] == keep[k];
      PLDP_RETURN_IF_ERROR(client->SendReportNoWait(base + k, report));
      pending.push_back(Clock::now());
      ++out->attempted;
      while (pending.size() >= kWindow) PLDP_RETURN_IF_ERROR(drain_one());
    }
    base = end;
  }
  while (!pending.empty()) PLDP_RETURN_IF_ERROR(drain_one());
  return Status::OK();
}

/// A dedicated connection sending a stats frame every 10 ms and timing each
/// answer; a stalled answer delays the next frame.
class StatusProbe {
 public:
  StatusProbe() = default;
  ~StatusProbe() { Stop(); }
  StatusProbe(const StatusProbe&) = delete;
  StatusProbe& operator=(const StatusProbe&) = delete;

  Status Connect(uint16_t port) { return client_.Connect(kLoopback, port); }
  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// Read after Stop(). An error ends the probing, so the stall was not
  /// measured over the whole epoch.
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const Status& status() const { return status_; }

 private:
  void Run() {
    Clock::time_point next = Clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
      const Clock::time_point sent = Clock::now();
      const StatusOr<net::StatsBody> stats = client_.FetchStats();
      latencies_ms_.push_back(MillisSince(sent));
      if (!stats.ok()) {
        status_ = stats.status();
        return;
      }
      next = std::max(next + kProbeInterval, Clock::now());
      std::this_thread::sleep_until(next);
    }
  }

  NetClient client_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_ms_;
  Status status_ = Status::OK();
  std::thread thread_;
};

/// Starts a daemon, drives one epoch through it, and stops it. Spans mark
/// each client phase (they record only while tracing is on).
StatusOr<EpochRecord> RunServeEpoch(const Cohort& cohort, uint64_t seed,
                                    bool traced) {
  EpochRecord record;
  const uint64_t n = cohort.users.size();

  Stopwatch setup_watch;
  net::EpochEngineOptions engine_options;
  engine_options.psda.beta = kBeta;
  engine_options.psda.seed = seed;
  net::EpochEngine engine(&cohort.taxonomy, engine_options);
  net::NetServerOptions server_options;
  server_options.io_threads = kIoThreads;
  net::NetServer server(&engine, server_options);
  PLDP_RETURN_IF_ERROR(server.Start());
  NetClient client;
  PLDP_RETURN_IF_ERROR(client.Connect(kLoopback, server.port()));
  StatusProbe probe;
  PLDP_RETURN_IF_ERROR(probe.Connect(server.port()));
  record.daemon_setup_s = setup_watch.ElapsedSeconds();

  const CpuTimes epoch_cpu = ProcessCpu();
  Stopwatch epoch_watch;
  {
    PLDP_SPAN("bench.epoch");
    probe.Start();
    {
      PLDP_SPAN("bench.spec_upload");
      PLDP_RETURN_IF_ERROR(UploadSpecs(cohort, &client, &record));
    }
    {
      PLDP_SPAN("bench.seal_specs");
      ++record.attempted;
      PLDP_RETURN_IF_ERROR(client.SealSpecs(n).status());
    }
    {
      PLDP_SPAN("bench.report_phase");
      const CpuTimes cpu = ProcessCpu();
      Stopwatch watch;
      PLDP_RETURN_IF_ERROR(
          ReportUsers(cohort, seed, traced, &client, &record));
      record.report_phase_s = watch.ElapsedSeconds();
      const CpuTimes after = ProcessCpu();
      record.report_cpu = {after.user_s - cpu.user_s, after.sys_s - cpu.sys_s};
    }
    {
      PLDP_SPAN("bench.seal_epoch");
      ++record.attempted;
      PLDP_RETURN_IF_ERROR(client.SealEpoch().status());
    }
    {
      PLDP_SPAN("bench.fetch");
      ++record.attempted;
      PLDP_ASSIGN_OR_RETURN(record.published, client.FetchEstimates());
    }
  }
  record.epoch_s = epoch_watch.ElapsedSeconds();
  const CpuTimes epoch_cpu_after = ProcessCpu();
  record.epoch_cpu_s = (epoch_cpu_after.user_s - epoch_cpu.user_s) +
                       (epoch_cpu_after.sys_s - epoch_cpu.sys_s);
  record.peak_rss_mb = PeakRssMb();

  probe.Stop();
  if (!probe.status().ok()) {
    return Status::Internal("status probe: " + probe.status().ToString());
  }
  record.probe_ms = probe.latencies_ms();
  record.attempted += probe.latencies_ms().size();
  record.server = server.stats();
  record.engine = engine.stats();
  client.Close();
  server.Stop();
  return record;
}

/// The in-process protocol over the same cohort and seed (the
/// pldp_loadgen --compare reference).
StatusOr<std::vector<double>> InProcessEstimates(const Cohort& cohort,
                                                 uint64_t seed) {
  std::vector<DeviceClient> devices;
  devices.reserve(cohort.users.size());
  for (uint64_t i = 0; i < cohort.users.size(); ++i) {
    devices.emplace_back(&cohort.taxonomy, cohort.users[i].cell,
                         cohort.users[i].spec, DeviceSeed(seed, i));
  }
  PsdaOptions psda;
  psda.beta = kBeta;
  psda.seed = seed;
  AggregationServer server(&cohort.taxonomy, psda);
  PLDP_ASSIGN_OR_RETURN(PsdaResult result, server.Collect(&devices, nullptr));
  return std::move(result.counts);
}

/// Times grouping and clustering from outside over the sealed roster (every
/// user, ascending id): how much of net.seal_specs_s is Algorithm 3.
Status TimeSealClustering(const Cohort& cohort, RunResult* result) {
  std::vector<PrivacySpec> specs;
  specs.reserve(cohort.users.size());
  for (const UserRecord& user : cohort.users) specs.push_back(user.spec);
  Stopwatch watch;
  std::vector<UserGroup> groups;
  {
    PLDP_SPAN("bench.outside.user_group");
    PLDP_ASSIGN_OR_RETURN(groups,
                          GroupSpecsBySafeRegion(cohort.taxonomy, specs));
  }
  const double group_ms = watch.ElapsedMillis();
  watch.Restart();
  ClusteringOptions options;
  options.beta = kBeta;
  ClusteringResult clustering;
  {
    PLDP_SPAN("bench.outside.clustering");
    PLDP_ASSIGN_OR_RETURN(clustering,
                          ClusterUserGroups(cohort.taxonomy, groups, options));
  }
  const double cluster_ms = watch.ElapsedMillis();
  result->Set("user_group.ms", group_ms);
  result->Set("user_group.groups", static_cast<double>(groups.size()));
  result->Set("clustering.ms", cluster_ms);
  result->Set("clustering.merges", clustering.merges);
  result->Set("clustering.clusters",
              static_cast<double>(clustering.clusters.size()));
  result->Set("clustering.us_per_merge",
              clustering.merges == 0 ? 0.0
                                     : cluster_ms * 1e3 / clustering.merges);
  return Status::OK();
}

void SetTracedMetrics(const EpochRecord& traced, double untraced_epoch_s,
                      uint64_t n, const std::vector<obs::SpanRecord>& spans,
                      RunResult* result) {
  const double users = static_cast<double>(n);
  const double epoch_ms = SpanMillis(spans, "bench.epoch");
  const double upload_ms = SpanMillis(spans, "bench.spec_upload");
  const double seal_specs_ms = SpanMillis(spans, "bench.seal_specs");
  const double report_ms = SpanMillis(spans, "bench.report_phase");
  const double seal_epoch_ms = SpanMillis(spans, "bench.seal_epoch");
  const double fetch_ms = SpanMillis(spans, "bench.fetch");
  const double unattributed_ms =
      epoch_ms -
      (upload_ms + seal_specs_ms + report_ms + seal_epoch_ms + fetch_ms);
  result->Set("net.spec_upload_s", upload_ms / 1e3);
  result->Set("net.specs_per_s", users / (upload_ms / 1e3));
  result->Set("net.seal_specs_s", seal_specs_ms / 1e3);
  result->Set("net.report_phase_s", report_ms / 1e3);
  result->Set("net.seal_epoch_s", seal_epoch_ms / 1e3);
  result->Set("net.fetch_s", fetch_ms / 1e3);
  result->Set("net.ack_p50_ms", Percentile(traced.ack_ms, 50.0));
  result->Set("net.ack_p99_ms", Percentile(traced.ack_ms, 99.0));
  result->Set("net.ack_samples", static_cast<double>(traced.ack_ms.size()));
  result->Set("net.frames_per_user", traced.server.frames_received / users);
  result->Set("net.bytes_up_per_user", traced.server.bytes_received / users);
  result->Set("net.bytes_down_per_user", traced.server.bytes_sent / users);
  result->Set("net.frame_errors", traced.server.frame_errors);
  result->Set("net.report_user_cpu_s", traced.report_cpu.user_s);
  result->Set("net.report_sys_cpu_s", traced.report_cpu.sys_s);
  result->Set("engine.reports_staged", traced.engine.reports_staged);
  result->Set("engine.reports_folded", traced.engine.reports_folded);
  result->Set("engine.reports_shed", traced.engine.reports_shed);
  result->Set("engine.reports_duplicate", traced.engine.reports_duplicate);
  result->Set("engine.late_frames", traced.engine.late_frames);
  result->Set("net.status_p50_ms", Percentile(traced.probe_ms, 50.0));
  result->Set("net.status_max_ms", Percentile(traced.probe_ms, 100.0));
  result->Set("net.status_probes", static_cast<double>(traced.probe_ms.size()));
  result->Set("pcep.encode_ms", traced.encode_s * 1e3);
  result->Set("pcep.encode_users_per_s",
              traced.encode_s > 0.0 ? users / traced.encode_s : 0.0);
  result->Set("traced_epoch_ms", epoch_ms);
  result->Set("epoch_cpu_s", traced.epoch_cpu_s);
  result->Set("unattributed_ms", unattributed_ms);
  result->Set("trace_overhead_pct",
              (epoch_ms / 1e3 - untraced_epoch_s) / untraced_epoch_s * 100.0);
  std::cout << "layer budget (traced epoch " << epoch_ms << " ms):\n"
            << "  spec_upload " << upload_ms << " ms, seal_specs "
            << seal_specs_ms << " ms, report_phase " << report_ms
            << " ms, seal_epoch " << seal_epoch_ms << " ms, fetch "
            << fetch_ms << " ms, unattributed " << unattributed_ms << " ms\n";
}

}  // namespace

void RunServeWorkload(const BenchOptions& options, const Workload& workload,
                      RunResult* result) {
  const Status pinned = PinToOneCpu();
  if (!pinned.ok()) {
    result->FailCheck(pinned.ToString());
    return;
  }
  SetupSampler setup(workload, options.seed);
  StatusOr<std::unique_ptr<Cohort>> built = setup.Build();
  if (!built.ok()) {
    result->FailCheck("cohort: " + built.status().ToString());
    return;
  }
  const Cohort& cohort = *built.value();
  const uint64_t n = cohort.users.size();
  std::cout << workload.name << ": " << n << " users, "
            << cohort.truth.size() << " cells, seed " << options.seed << "\n";

  // Timed epochs; the traced run times one untraced epoch as the overhead
  // reference, then one traced epoch.
  std::vector<EpochRecord> epochs;
  double measured_s = 0.0;
  auto run_epoch = [&](bool traced) {
    StatusOr<EpochRecord> epoch = RunServeEpoch(
        cohort, ProtocolSeed(options.seed, epochs.size()), traced);
    if (!epoch.ok()) {
      result->Attempt(1);
      result->FailCheck("daemon epoch: " + epoch.status().ToString());
      return false;
    }
    result->Attempt(epoch.value().attempted);
    result->Fail(epoch.value().failed);
    measured_s += epoch.value().epoch_s;
    std::cout << "epoch " << epochs.size() << (traced ? " (traced)" : "")
              << ": " << epoch.value().epoch_s << " s, "
              << epoch.value().reports_accepted / epoch.value().report_phase_s
              << " reports/s, status stall "
              << Percentile(epoch.value().probe_ms, 100.0) << " ms\n";
    epochs.push_back(std::move(epoch).value());
    return true;
  };
  do {
    if (!run_epoch(false)) return;
    const StatusOr<std::unique_ptr<Cohort>> sample = setup.Build();
    if (!sample.ok()) {
      result->FailCheck("cohort: " + sample.status().ToString());
      return;
    }
  } while (!options.trace &&
           (epochs.size() < kMinEpochs || measured_s < options.seconds));

  std::vector<double> setup_s, epoch_s, reports_per_s, stall_ms;
  for (const EpochRecord& epoch : epochs) {
    setup_s.push_back(epoch.daemon_setup_s);
    epoch_s.push_back(epoch.epoch_s);
    reports_per_s.push_back(epoch.reports_accepted / epoch.report_phase_s);
    stall_ms.push_back(Percentile(epoch.probe_ms, 100.0));
  }
  const SetupTimes setup_median = setup.Median();
  result->Set("data.generate_s", setup_median.generate_s);
  result->Set("geo.taxonomy_s", setup_median.taxonomy_s);
  result->Set("data.assign_specs_s", setup_median.assign_specs_s);
  std::cout << epochs.size() << " epochs: median " << Median(epoch_s)
            << " s\n";
  result->Set("setup_s", setup_median.total() + Median(setup_s));
  result->Set("epoch_s", Median(epoch_s));
  result->Set("reports_per_s", Median(reports_per_s));
  result->Set("status_stall_ms", Median(stall_ms));
  // Later epochs inherit the allocator state the earlier ones left behind.
  result->Set("peak_rss_mb", epochs.front().peak_rss_mb);

  if (options.trace) {
    BeginTrace();
    const bool ran = run_epoch(true);
    const Status timed = ran ? TimeSealClustering(cohort, result) : Status::OK();
    const std::vector<obs::SpanRecord> spans = EndTrace(options.trace_file);
    if (!ran) return;
    if (!timed.ok()) result->FailCheck("clustering: " + timed.ToString());
    SetTracedMetrics(epochs.back(), epochs.front().epoch_s, n, spans, result);
  }

  // Output check, outside every timed region: each epoch against the
  // in-process run with its protocol seed.
  if (options.flip_bit) FlipOneBit(&epochs.front().published);
  const size_t draws = std::min<size_t>(epochs.size(), kProtocolSeeds);
  Stopwatch reference_watch;
  for (size_t draw = 0; draw < draws; ++draw) {
    const StatusOr<std::vector<double>> reference =
        InProcessEstimates(cohort, ProtocolSeed(options.seed, draw));
    if (!reference.ok()) {
      result->Attempt(1);
      result->FailCheck("in-process reference: " +
                        reference.status().ToString());
      return;
    }
    for (size_t i = draw; i < epochs.size(); i += kProtocolSeeds) {
      result->Attempt(1);
      if (!BitIdentical(epochs[i].published, reference.value())) {
        result->FailCheck("epoch " + std::to_string(i) +
                          " published estimates differ from the in-process run");
      }
    }
  }
  std::cout << draws << " in-process reference runs: "
            << reference_watch.ElapsedSeconds() << " s\n";
  std::vector<std::vector<double>> published;
  for (size_t draw = 0; draw < draws; ++draw) {
    published.push_back(epochs[draw].published);
  }
  ScoreEstimates(cohort, published, result);
}

}  // namespace e2ebench
}  // namespace pldp
