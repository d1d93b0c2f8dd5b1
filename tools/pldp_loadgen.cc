// Load generator for the socket-served aggregation daemon (src/net).
//
// Drives one full epoch — spec upload, spec seal, assignment fetch, report
// submission, epoch seal, estimate fetch — over real TCP sockets with N
// worker threads, each owning one reused connection that multiplexes its
// share of a seeded synthetic cohort (millions of users). Reports are
// pipelined (a bounded window of unacknowledged frames per connection) and
// optionally paced open-loop to a target arrival rate; per-report ingest
// latency is measured send-to-ack.
//
// The synthetic cohort is derived exactly as `pldp_cli run` derives it
// (GenerateByName + AssignSpecs with seed ^ 0x5E771265; per-device seed
// SplitMix64(seed ^ (i+1))), so --compare can run the in-process
// AggregationServer over an identical cohort and assert the daemon's
// published estimates are bit-identical. Device-side perturbation runs
// through the batched encode kernel (BatchKeepDecisions, SIMD where the CPU
// has it) so cohort generation is not the bottleneck at millions of users.
//
// Results land in BENCH_net_service.json (schema pldp.bench/1) via the
// shared bench reporting, with the throughput/latency stats the benchdiff
// gate classifies: reports_per_sec, ingest_p50_ms / ingest_p95_ms /
// ingest_p99_ms, shed_fraction.
//
// Usage:
//   pldp_loadgen --serve --dataset road --scale 0.05 --users 1000000
//       --connections 8 --window 64 --compare
//   pldp_loadgen --host 127.0.0.1 --port 7787 --dataset road ...
//     (flags defining the cohort/taxonomy must match the daemon's).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pcep_encode.h"
#include "data/spec_assignment.h"
#include "data/synthetic.h"
#include "geo/taxonomy.h"
#include "net/client.h"
#include "net/epoch_engine.h"
#include "net/server.h"
#include "net/wire.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/status_or.h"
#include "util/stopwatch.h"

namespace pldp {
namespace {

using net::NetClient;

using Clock = std::chrono::steady_clock;

struct LoadgenOptions {
  // Cohort definition (must match the daemon's flags in --host mode).
  std::string dataset = "road";
  double scale = 0.05;
  std::string setting = "S2E2";
  uint64_t seed = 2016;
  double beta = 0.1;
  // 0 keeps the dataset's own cohort size; otherwise the user cells are
  // cycled up/down to exactly this many synthetic clients.
  uint64_t users = 0;

  // Target daemon. --serve self-hosts one over loopback instead.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool serve = false;
  unsigned io_threads = 0;   // serve mode: NetServerOptions.io_threads
  uint32_t fold_threads = 0; // serve mode: PsdaOptions.num_threads
  double shed = 0.0;         // serve mode: admission overload fraction

  // Load shape.
  unsigned connections = 8;
  unsigned window = 64;
  double rate = 0.0;  // open-loop reports/sec across all workers; 0 = max

  // Fault mixing.
  double dup_prob = 0.0;      // re-send a report (expects kDuplicate ack)
  double dropout_prob = 0.0;  // fetch the assignment but never report
  unsigned corrupt_conns = 0; // sacrificial connections sending bad frames

  // Progress reporting: poll the daemon's kStatsRequest control frame every
  // N seconds on a dedicated connection and print a one-line summary.
  unsigned progress = 0;

  // Verification / reporting.
  bool compare = false;  // bit-identity assert vs in-process RunEpoch
  std::string bench_name = "net_service";
};

void PrintUsage() {
  std::cerr
      << "usage: pldp_loadgen [--serve | --host H --port P]\n"
         "  --dataset road|checkin|landmark|storage  --scale S  --seed N\n"
         "  --setting S1E1|S1E2|S2E1|S2E2  --beta B\n"
         "  --users N          cohort size (0 = dataset size)\n"
         "  --connections W    worker threads / reused connections (8)\n"
         "  --window K         pipelined frames per connection (64)\n"
         "  --rate R           open-loop reports/sec, 0 = unthrottled\n"
         "  --dup F            duplicate-report probability\n"
         "  --drop F           dropout probability (skip the report)\n"
         "  --corrupt K        extra connections sending corrupt frames\n"
         "  --progress N       poll daemon stats every N seconds (0 = off)\n"
         "  --shed F           (--serve) admission overload fraction\n"
         "  --io-threads N     (--serve) daemon I/O threads\n"
         "  --threads N        (--serve) fold chunk count\n"
         "  --compare          assert bit-identity vs in-process run\n"
         "  --bench-name NAME  BENCH_<NAME>.json (net_service)\n";
}

StatusOr<LoadgenOptions> ParseArgs(int argc, char** argv) {
  LoadgenOptions options;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return args[++i];
    };
    auto next_u64 = [&]() -> StatusOr<uint64_t> {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      return ParseUint64(value);
    };
    auto next_double = [&]() -> StatusOr<double> {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      const StatusOr<double> parsed = ParseDouble(value);
      if (!parsed.ok()) {
        return Status::InvalidArgument(flag + ": " +
                                       parsed.status().message());
      }
      return parsed.value();
    };
    if (flag == "--dataset") {
      PLDP_ASSIGN_OR_RETURN(options.dataset, next());
    } else if (flag == "--scale") {
      PLDP_ASSIGN_OR_RETURN(options.scale, next_double());
    } else if (flag == "--setting") {
      PLDP_ASSIGN_OR_RETURN(options.setting, next());
    } else if (flag == "--seed") {
      PLDP_ASSIGN_OR_RETURN(options.seed, next_u64());
    } else if (flag == "--beta") {
      PLDP_ASSIGN_OR_RETURN(options.beta, next_double());
    } else if (flag == "--users") {
      PLDP_ASSIGN_OR_RETURN(options.users, next_u64());
    } else if (flag == "--host") {
      PLDP_ASSIGN_OR_RETURN(options.host, next());
    } else if (flag == "--port") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t port, next_u64());
      options.port = static_cast<uint16_t>(port);
    } else if (flag == "--serve") {
      options.serve = true;
    } else if (flag == "--io-threads") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.io_threads = static_cast<unsigned>(n);
    } else if (flag == "--threads") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.fold_threads = static_cast<uint32_t>(n);
    } else if (flag == "--shed") {
      PLDP_ASSIGN_OR_RETURN(options.shed, next_double());
    } else if (flag == "--connections") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.connections = static_cast<unsigned>(n);
    } else if (flag == "--window") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.window = static_cast<unsigned>(n);
    } else if (flag == "--rate") {
      PLDP_ASSIGN_OR_RETURN(options.rate, next_double());
    } else if (flag == "--dup") {
      PLDP_ASSIGN_OR_RETURN(options.dup_prob, next_double());
    } else if (flag == "--drop") {
      PLDP_ASSIGN_OR_RETURN(options.dropout_prob, next_double());
    } else if (flag == "--corrupt") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.corrupt_conns = static_cast<unsigned>(n);
    } else if (flag == "--progress") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t n, next_u64());
      options.progress = static_cast<unsigned>(n);
    } else if (flag == "--compare") {
      options.compare = true;
    } else if (flag == "--bench-name") {
      PLDP_ASSIGN_OR_RETURN(options.bench_name, next());
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  if (!options.serve && options.port == 0) {
    return Status::InvalidArgument("need --port (or --serve)");
  }
  if (options.connections == 0) options.connections = 1;
  if (options.window == 0) options.window = 1;
  if (options.compare &&
      (options.dup_prob > 0.0 || options.dropout_prob > 0.0 ||
       options.shed > 0.0)) {
    return Status::InvalidArgument(
        "--compare needs a fault-free run (no --dup/--drop/--shed): the "
        "in-process baseline folds every report exactly once");
  }
  return options;
}

/// Per-user device seed, matching tests/protocol_end_to_end_test.cc so a
/// wire-driven cohort and an in-process cohort perturb identically.
uint64_t DeviceSeed(uint64_t root_seed, uint64_t user) {
  return SplitMix64(root_seed ^ (user + 1));
}

StatusOr<std::vector<UserRecord>> BuildLoadCohort(
    const LoadgenOptions& options, const SpatialTaxonomy& taxonomy,
    std::vector<CellId> cells) {
  if (options.users != 0 && options.users != cells.size()) {
    // Cycle the dataset's cells to the requested cohort size; load shape is
    // what matters here, not histogram fidelity.
    std::vector<CellId> resized(options.users);
    for (uint64_t i = 0; i < options.users; ++i) {
      resized[i] = cells[i % cells.size()];
    }
    cells = std::move(resized);
  }
  if (options.setting != "S1E1" && options.setting != "S1E2" &&
      options.setting != "S2E1" && options.setting != "S2E2") {
    return Status::InvalidArgument("unknown --setting: " + options.setting);
  }
  const SafeRegionDistribution safe_regions =
      options.setting[1] == '1' ? SafeRegionsS1() : SafeRegionsS2();
  const EpsilonDistribution epsilons =
      options.setting[3] == '1' ? EpsilonsE1() : EpsilonsE2();
  return AssignSpecs(taxonomy, cells, safe_regions, epsilons,
                     options.seed ^ 0x5E771265);
}

/// Everything one worker thread measures; merged after the join.
struct WorkerResult {
  Status status = Status::OK();
  uint64_t specs_sent = 0;
  uint64_t reports_sent = 0;      // distinct users reported (excl. dups)
  uint64_t dup_reports_sent = 0;
  uint64_t dropped_users = 0;
  uint64_t acks_accepted = 0;
  uint64_t acks_duplicate = 0;
  uint64_t acks_shed = 0;
  uint64_t acks_other = 0;
  std::vector<double> latencies_ms;  // send-to-ack per non-dup report
};

struct SharedCohort {
  const SpatialTaxonomy* taxonomy = nullptr;
  const std::vector<UserRecord>* users = nullptr;
  uint64_t seed = 0;
};

/// Uploads the worker's slice of specs over one connection, pipelined.
Status RunSpecPhase(const LoadgenOptions& options, const SharedCohort& cohort,
                    NetClient* client, uint64_t lo, uint64_t hi,
                    WorkerResult* result) {
  uint64_t next_ack = lo;
  for (uint64_t user = lo; user < hi; ++user) {
    SpecUploadMsg msg;
    msg.safe_region = (*cohort.users)[user].spec.safe_region;
    msg.epsilon = (*cohort.users)[user].spec.epsilon;
    PLDP_RETURN_IF_ERROR(client->SendSpecNoWait(user, msg));
    ++result->specs_sent;
    while (user + 1 - next_ack >= options.window) {
      PLDP_ASSIGN_OR_RETURN(const bool accepted, client->ReadSpecAck());
      if (!accepted) {
        return Status::Internal("daemon rejected spec of user " +
                                std::to_string(next_ack));
      }
      ++next_ack;
    }
  }
  while (next_ack < hi) {
    PLDP_ASSIGN_OR_RETURN(const bool accepted, client->ReadSpecAck());
    if (!accepted) {
      return Status::Internal("daemon rejected spec of user " +
                              std::to_string(next_ack));
    }
    ++next_ack;
  }
  return Status::OK();
}

/// Drives the worker's slice through assignment fetch + report submission.
/// Processes users in window-sized chunks: pipelined row requests, local
/// perturbation, pipelined (and optionally paced/faulted) reports.
Status RunReportPhase(const LoadgenOptions& options, const SharedCohort& cohort,
                      NetClient* client, uint64_t lo, uint64_t hi,
                      double per_worker_interval_s, WorkerResult* result) {
  Rng fault_rng(SplitMix64(cohort.seed ^ 0xFA017ULL) ^ lo);
  auto next_send = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(per_worker_interval_s));

  std::vector<uint64_t> chunk_users;
  std::vector<std::vector<uint8_t>> chunk_reports;
  std::vector<uint8_t> chunk_signs;
  std::vector<uint8_t> chunk_keep;
  std::vector<double> chunk_epsilons;
  struct PendingAck {
    Clock::time_point sent_at;
    bool is_dup = false;
  };
  std::deque<PendingAck> pending;

  auto drain_one = [&]() -> Status {
    PLDP_ASSIGN_OR_RETURN(const net::ReportOutcome outcome,
                          client->ReadReportAck());
    const PendingAck sent = pending.front();
    pending.pop_front();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent.sent_at)
            .count();
    switch (outcome) {
      case net::ReportOutcome::kAccepted:
        ++result->acks_accepted;
        break;
      case net::ReportOutcome::kDuplicate:
        ++result->acks_duplicate;
        break;
      case net::ReportOutcome::kShed:
        ++result->acks_shed;
        break;
      default:
        ++result->acks_other;
        break;
    }
    if (!sent.is_dup) result->latencies_ms.push_back(ms);
    return Status::OK();
  };

  for (uint64_t base = lo; base < hi;) {
    const uint64_t chunk_end = std::min<uint64_t>(base + options.window, hi);
    chunk_users.clear();
    chunk_reports.clear();

    // Pipelined assignment fetch for the chunk. Responses are FIFO per
    // connection, so the previous chunk's outstanding report acks must be
    // drained before this chunk's assignments can be read (the row requests
    // leave with the first read that finds no ack buffered, keeping the
    // server busy meanwhile).
    for (uint64_t user = base; user < chunk_end; ++user) {
      PLDP_RETURN_IF_ERROR(client->SendRowRequestNoWait(user));
    }
    while (!pending.empty()) {
      PLDP_RETURN_IF_ERROR(drain_one());
    }
    // Device-side encode: replicate DeviceClient::HandleRowAssignment's
    // checks per user, then derive the whole chunk's keep decisions in one
    // vectorized pass. Users in a chunk are consecutive, and the loadgen
    // device seed SplitMix64(seed ^ (user + 1)) is exactly
    // SeedSchedule{seed, 1} at index_base = base, so BatchKeepDecisions
    // reproduces the first Bernoulli draw of each per-user Rng and
    // report.positive = (row bit == keep) matches `z > 0.0` bit for bit
    // (the magnitude is positive for any valid epsilon). --compare asserts
    // the published estimates equal the in-process DeviceClient run's.
    chunk_signs.clear();
    chunk_epsilons.clear();
    for (uint64_t user = base; user < chunk_end; ++user) {
      PLDP_ASSIGN_OR_RETURN(const RowAssignmentMsg assignment,
                            client->ReadAssignment());
      const UserRecord& record = (*cohort.users)[user];
      if (assignment.region >= cohort.taxonomy->num_nodes()) {
        return Status::InvalidArgument(
            "row assignment names an unknown region");
      }
      if (!cohort.taxonomy->Contains(assignment.region,
                                     record.spec.safe_region)) {
        return Status::FailedPrecondition(
            "assigned protocol region does not cover this device's safe "
            "region");
      }
      if (assignment.row_bits.size() !=
          cohort.taxonomy->RegionSize(assignment.region)) {
        return Status::InvalidArgument(
            "row length does not match the region");
      }
      if (assignment.m == 0) {
        return Status::InvalidArgument(
            "reduced dimension m must be positive");
      }
      PLDP_ASSIGN_OR_RETURN(
          const uint64_t rank,
          cohort.taxonomy->RegionRankOfCell(assignment.region, record.cell));
      chunk_signs.push_back(assignment.row_bits.Get(rank) ? 1 : 0);
      chunk_epsilons.push_back(record.spec.epsilon);
      chunk_users.push_back(user);
    }
    chunk_keep.assign(chunk_users.size(), 0);
    PLDP_RETURN_IF_ERROR(BatchKeepDecisions(
        SeedSchedule{cohort.seed, 1}, base, chunk_epsilons.data(),
        chunk_keep.size(), chunk_keep.data()));
    for (size_t k = 0; k < chunk_users.size(); ++k) {
      ReportMsg report;
      report.positive = chunk_signs[k] == chunk_keep[k];
      chunk_reports.push_back(report.Serialize());
    }

    // Pipelined, paced report submission.
    for (size_t k = 0; k < chunk_users.size(); ++k) {
      if (options.dropout_prob > 0.0 &&
          fault_rng.NextDouble() < options.dropout_prob) {
        ++result->dropped_users;
        continue;
      }
      PLDP_ASSIGN_OR_RETURN(const ReportMsg report,
                            ReportMsg::Parse(chunk_reports[k]));
      if (interval.count() > 0) {
        // Open-loop pacing: the schedule advances regardless of acks; a
        // backlog is sent as a burst rather than rescheduled.
        std::this_thread::sleep_until(next_send);
        next_send += interval;
      }
      PLDP_RETURN_IF_ERROR(client->SendReportNoWait(chunk_users[k], report));
      pending.push_back({Clock::now(), false});
      ++result->reports_sent;
      if (options.dup_prob > 0.0 &&
          fault_rng.NextDouble() < options.dup_prob) {
        PLDP_RETURN_IF_ERROR(client->SendReportNoWait(chunk_users[k], report));
        pending.push_back({Clock::now(), true});
        ++result->dup_reports_sent;
      }
      // A paced report leaves at its due time, not with the next flush of
      // the client's write buffer.
      if (interval.count() > 0) PLDP_RETURN_IF_ERROR(client->Flush());
      while (pending.size() >= options.window) {
        PLDP_RETURN_IF_ERROR(drain_one());
      }
    }
    base = chunk_end;
  }
  while (!pending.empty()) {
    PLDP_RETURN_IF_ERROR(drain_one());
  }
  return Status::OK();
}

/// Sacrificial connections that send deliberately corrupt frames; the daemon
/// must reply by closing the connection, never by crashing or acking.
Status RunCorruptConnections(const LoadgenOptions& options, uint16_t port) {
  Rng rng(SplitMix64(options.seed ^ 0xC0225ULL));
  for (unsigned i = 0; i < options.corrupt_conns; ++i) {
    NetClient client;
    PLDP_RETURN_IF_ERROR(client.Connect(options.host, port));
    std::vector<uint8_t> frame =
        net::EncodeFrame(net::FrameType::kRowRequest,
                         net::EncodeRowRequestBody(rng.NextUint64(1024)));
    // Flip one random bit in the CRC or payload — never the length prefix:
    // inflating the length legitimately leaves the server *waiting* for the
    // rest of the frame, which would block this probe forever. A CRC/payload
    // flip always yields a complete frame that must fail verification.
    const size_t bit = 32 + rng.NextUint64((frame.size() - 4) * 8);
    frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    PLDP_RETURN_IF_ERROR(client.SendRaw(frame));
    // The server must drop the connection without acking; a frame reply here
    // would mean a corrupt frame was interpreted.
    const StatusOr<net::ReportOutcome> ack = client.ReadReportAck();
    if (ack.ok()) {
      return Status::Internal("daemon acknowledged a corrupted frame");
    }
  }
  return Status::OK();
}

/// Background progress reporter: one dedicated connection polling the
/// daemon's kStatsRequest control frame every `--progress` seconds and
/// printing a one-line summary per poll. The control plane is answered from
/// the epoll loop without touching the fold path, so the monitor is safe to
/// run alongside the workers (it is exactly what `pldp_cli stat --watch`
/// does, minus the screen clearing).
class ProgressMonitor {
 public:
  ~ProgressMonitor() { Stop(); }

  Status Start(const LoadgenOptions& options, uint16_t port) {
    // Connect on the caller's thread so a refused connection surfaces as a
    // startup error rather than a silent dead monitor.
    PLDP_RETURN_IF_ERROR(client_.Connect(options.host, port));
    const unsigned interval_s = options.progress;
    thread_ = std::thread([this, interval_s] { Run(interval_s); });
    return Status::OK();
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    client_.Close();
  }

 private:
  static const char* PhaseName(uint8_t phase) {
    switch (phase) {
      case 0:
        return "collecting_specs";
      case 1:
        return "collecting_reports";
      case 2:
        return "published";
      case 3:
        return "sealing";
    }
    return "unknown";
  }

  void Run(unsigned interval_s) {
    uint64_t prev_staged = 0;
    auto prev_time = Clock::now();
    bool have_prev = false;
    while (!stop_.load(std::memory_order_acquire)) {
      // Sleep in short slices so Stop() never waits a full interval.
      for (unsigned slice = 0; slice < interval_s * 10; ++slice) {
        if (stop_.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      const StatusOr<net::StatsBody> stats = client_.FetchStats();
      if (!stats.ok()) return;  // daemon gone or draining: go quiet
      const auto now = Clock::now();
      const double elapsed_s =
          std::chrono::duration<double>(now - prev_time).count();
      std::ostringstream line;
      line << "progress: phase=" << PhaseName(stats.value().phase)
           << " staged=" << stats.value().reports_staged
           << " folded=" << stats.value().reports_folded
           << " shed=" << stats.value().reports_shed
           << " late=" << stats.value().late_frames;
      if (have_prev && elapsed_s > 0.0) {
        const double rate =
            static_cast<double>(stats.value().reports_staged - prev_staged) /
            elapsed_s;
        line << " (+" << static_cast<uint64_t>(rate) << " reports/s)";
      }
      line << "\n";
      std::cout << line.str() << std::flush;
      prev_staged = stats.value().reports_staged;
      prev_time = now;
      have_prev = true;
    }
  }

  NetClient client_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

StatusOr<std::vector<double>> RunInProcessBaseline(
    const LoadgenOptions& options, const SpatialTaxonomy& taxonomy,
    const std::vector<UserRecord>& users) {
  std::vector<DeviceClient> clients;
  clients.reserve(users.size());
  for (uint64_t i = 0; i < users.size(); ++i) {
    clients.emplace_back(&taxonomy, users[i].cell, users[i].spec,
                         DeviceSeed(options.seed, i));
  }
  PsdaOptions psda;
  psda.beta = options.beta;
  psda.seed = options.seed;
  psda.num_threads = options.fold_threads;
  AggregationServer server(&taxonomy, psda);
  PLDP_ASSIGN_OR_RETURN(PsdaResult result, server.Collect(&clients, nullptr));
  return std::move(result.counts);
}

int RunLoadgen(const LoadgenOptions& options) {
  // --- Cohort (same derivation as pldp_cli run / the daemon's taxonomy). ---
  StatusOr<Dataset> dataset =
      GenerateByName(options.dataset, options.scale, options.seed);
  if (!dataset.ok()) {
    std::cerr << "dataset: " << dataset.status().ToString() << "\n";
    return 1;
  }
  StatusOr<UniformGrid> grid = dataset.value().MakeGrid();
  StatusOr<SpatialTaxonomy> taxonomy = SpatialTaxonomy::Build(grid.value(), 4);
  if (!taxonomy.ok()) {
    std::cerr << "taxonomy: " << taxonomy.status().ToString() << "\n";
    return 1;
  }
  StatusOr<std::vector<UserRecord>> users = BuildLoadCohort(
      options, taxonomy.value(), dataset.value().ToCells(grid.value()));
  if (!users.ok()) {
    std::cerr << "cohort: " << users.status().ToString() << "\n";
    return 1;
  }
  const uint64_t n = users.value().size();

  // --- Optional self-hosted daemon (real loopback sockets). ---
  std::unique_ptr<net::EpochEngine> engine;
  std::unique_ptr<net::NetServer> server;
  uint16_t port = options.port;
  if (options.serve) {
    net::EpochEngineOptions engine_options;
    engine_options.psda.beta = options.beta;
    engine_options.psda.seed = options.seed;
    engine_options.psda.num_threads = options.fold_threads;
    if (options.shed > 0.0) {
      engine_options.admission.max_queue_depth = 64;
      engine_options.admission.service_per_arrival = 1.0 - options.shed;
    }
    engine = std::make_unique<net::EpochEngine>(&taxonomy.value(),
                                                engine_options);
    net::NetServerOptions server_options;
    server_options.io_threads = options.io_threads;
    server = std::make_unique<net::NetServer>(engine.get(), server_options);
    const Status started = server->Start();
    if (!started.ok()) {
      std::cerr << "serve: " << started.ToString() << "\n";
      return 1;
    }
    port = server->port();
  }

  bench::BenchReport report(options.bench_name);
  report.AddParam("dataset", options.dataset);
  report.AddParam("scale", options.scale);
  report.AddParam("setting", options.setting);
  report.AddParam("seed", options.seed);
  report.AddParam("users", n);
  report.AddParam("connections", static_cast<uint64_t>(options.connections));
  report.AddParam("window", static_cast<uint64_t>(options.window));
  report.AddParam("rate", options.rate);
  report.AddParam("shed", options.shed);
  report.AddParam("mode", options.serve ? "serve" : "remote");

  std::cout << "cohort: " << n << " users over " << options.connections
            << " connections (window " << options.window << ", target "
            << options.host << ":" << port << ")\n";

  SharedCohort cohort;
  cohort.taxonomy = &taxonomy.value();
  cohort.users = &users.value();
  cohort.seed = options.seed;

  const unsigned workers =
      static_cast<unsigned>(std::min<uint64_t>(options.connections, n));
  std::vector<NetClient> clients(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const Status connected = clients[w].Connect(options.host, port);
    if (!connected.ok()) {
      std::cerr << "connect: " << connected.ToString() << "\n";
      return 1;
    }
  }
  ProgressMonitor progress;
  if (options.progress > 0) {
    const Status started = progress.Start(options, port);
    if (!started.ok()) {
      std::cerr << "progress monitor: " << started.ToString() << "\n";
      return 1;
    }
  }

  auto slice = [&](unsigned w) -> std::pair<uint64_t, uint64_t> {
    const uint64_t per = n / workers;
    const uint64_t extra = n % workers;
    const uint64_t lo = w * per + std::min<uint64_t>(w, extra);
    return {lo, lo + per + (w < extra ? 1 : 0)};
  };

  std::vector<WorkerResult> results(workers);
  auto run_phase = [&](auto&& fn) {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w]() {
        const auto [lo, hi] = slice(w);
        fn(w, lo, hi, &results[w]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const WorkerResult& r : results) {
      if (!r.status.ok()) return r.status;
    }
    return Status::OK();
  };

  // --- Spec phase. ---
  Stopwatch spec_timer;
  Status phase_status = run_phase([&](unsigned w, uint64_t lo, uint64_t hi,
                                      WorkerResult* result) {
    result->status =
        RunSpecPhase(options, cohort, &clients[w], lo, hi, result);
  });
  const double spec_seconds = spec_timer.ElapsedSeconds();
  if (!phase_status.ok()) {
    std::cerr << "spec phase: " << phase_status.ToString() << "\n";
    return 1;
  }
  report.AddSample("spec_upload", spec_seconds);
  report.AddCaseStat("spec_upload", "specs_per_sec",
                     static_cast<double>(n) / spec_seconds);

  Stopwatch seal_specs_timer;
  const StatusOr<net::SealSpecsAckBody> sealed = clients[0].SealSpecs(n);
  if (!sealed.ok()) {
    std::cerr << "seal_specs: " << sealed.status().ToString() << "\n";
    return 1;
  }
  report.AddSample("seal_specs", seal_specs_timer.ElapsedSeconds());
  report.AddCaseStat("seal_specs", "clusters",
                     static_cast<double>(sealed.value().num_clusters));
  std::cout << "specs sealed: " << sealed.value().spec_responders
            << " responders, " << sealed.value().num_clusters
            << " clusters (" << spec_seconds << "s upload)\n";

  // --- Corrupt connections ride along with the report phase's start. ---
  if (options.corrupt_conns > 0) {
    const Status corrupted = RunCorruptConnections(options, port);
    if (!corrupted.ok()) {
      std::cerr << "corrupt connections: " << corrupted.ToString() << "\n";
      return 1;
    }
    std::cout << "corrupt connections: " << options.corrupt_conns
              << " sent, all dropped cleanly\n";
  }

  // --- Report phase (assignment fetch + pipelined paced reports). ---
  const double per_worker_interval_s =
      options.rate > 0.0 ? static_cast<double>(workers) / options.rate : 0.0;
  Stopwatch ingest_timer;
  phase_status = run_phase([&](unsigned w, uint64_t lo, uint64_t hi,
                               WorkerResult* result) {
    result->status = RunReportPhase(options, cohort, &clients[w], lo, hi,
                                    per_worker_interval_s, result);
  });
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  if (!phase_status.ok()) {
    std::cerr << "report phase: " << phase_status.ToString() << "\n";
    return 1;
  }

  WorkerResult total;
  std::vector<double> latencies;
  for (const WorkerResult& r : results) {
    total.reports_sent += r.reports_sent;
    total.dup_reports_sent += r.dup_reports_sent;
    total.dropped_users += r.dropped_users;
    total.acks_accepted += r.acks_accepted;
    total.acks_duplicate += r.acks_duplicate;
    total.acks_shed += r.acks_shed;
    total.acks_other += r.acks_other;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  const double reports_per_sec =
      static_cast<double>(total.reports_sent + total.dup_reports_sent) /
      ingest_seconds;
  const double shed_fraction =
      total.reports_sent > 0
          ? static_cast<double>(total.acks_shed) /
                static_cast<double>(total.reports_sent)
          : 0.0;
  report.AddSample("ingest", ingest_seconds);
  report.AddCaseStat("ingest", "reports_per_sec", reports_per_sec);
  report.AddCaseStat("ingest", "shed_fraction", shed_fraction);
  if (!latencies.empty()) {
    report.AddCaseStat("ingest", "ingest_p50_ms",
                       bench::Percentile(latencies, 50.0));
    report.AddCaseStat("ingest", "ingest_p95_ms",
                       bench::Percentile(latencies, 95.0));
    report.AddCaseStat("ingest", "ingest_p99_ms",
                       bench::Percentile(latencies, 99.0));
  }
  std::cout << "ingest: " << total.reports_sent << " reports ("
            << total.dup_reports_sent << " dups, " << total.dropped_users
            << " dropped) in " << ingest_seconds << "s = " << reports_per_sec
            << " reports/sec\n";
  std::cout << "acks: " << total.acks_accepted << " accepted, "
            << total.acks_duplicate << " duplicate, " << total.acks_shed
            << " shed, " << total.acks_other << " other";
  if (!latencies.empty()) {
    std::cout << "; latency p50 " << bench::Percentile(latencies, 50.0)
              << "ms p95 " << bench::Percentile(latencies, 95.0) << "ms p99 "
              << bench::Percentile(latencies, 99.0) << "ms";
  }
  std::cout << "\n";

  // --- Seal + fetch. ---
  Stopwatch seal_timer;
  const StatusOr<uint64_t> num_cells = clients[0].SealEpoch();
  if (!num_cells.ok()) {
    std::cerr << "seal_epoch: " << num_cells.status().ToString() << "\n";
    return 1;
  }
  report.AddSample("seal_epoch", seal_timer.ElapsedSeconds());
  const StatusOr<std::vector<double>> estimates = clients[0].FetchEstimates();
  if (!estimates.ok()) {
    std::cerr << "fetch_estimates: " << estimates.status().ToString() << "\n";
    return 1;
  }
  std::cout << "published: " << estimates.value().size() << " cells in "
            << seal_timer.ElapsedSeconds() << "s\n";
  progress.Stop();

  // --- Bit-identity assert vs the in-process protocol. ---
  int exit_code = 0;
  if (options.compare) {
    const StatusOr<std::vector<double>> baseline =
        RunInProcessBaseline(options, taxonomy.value(), users.value());
    if (!baseline.ok()) {
      std::cerr << "baseline: " << baseline.status().ToString() << "\n";
      return 1;
    }
    bool identical = baseline.value().size() == estimates.value().size();
    size_t first_diff = 0;
    if (identical) {
      for (size_t i = 0; i < baseline.value().size(); ++i) {
        uint64_t a = 0, b = 0;
        std::memcpy(&a, &baseline.value()[i], sizeof(a));
        std::memcpy(&b, &estimates.value()[i], sizeof(b));
        if (a != b) {
          identical = false;
          first_diff = i;
          break;
        }
      }
    }
    report.AddCaseStat("ingest", "bit_identical", identical ? 1.0 : 0.0);
    if (identical) {
      std::cout << "bit-identity: PASS (" << estimates.value().size()
                << " cells identical to in-process run)\n";
    } else {
      std::cerr << "bit-identity: FAIL (first difference at cell "
                << first_diff << ")\n";
      exit_code = 1;
    }
  }

  for (NetClient& client : clients) client.Close();
  if (server) server->Stop();

  const Status written = report.Write();
  if (!written.ok()) {
    std::cerr << "bench report: " << written.ToString() << "\n";
    return 1;
  }
  std::cout << "report written to " << report.OutputPath() << "\n";
  return exit_code;
}

}  // namespace
}  // namespace pldp

int main(int argc, char** argv) {
  const pldp::StatusOr<pldp::LoadgenOptions> options =
      pldp::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status().ToString() << "\n";
    pldp::PrintUsage();
    return 2;
  }
  return pldp::RunLoadgen(options.value());
}
