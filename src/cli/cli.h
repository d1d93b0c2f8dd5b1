#ifndef PLDP_CLI_CLI_H_
#define PLDP_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "util/status_or.h"

namespace pldp {

/// Parsed command line of the `pldp_cli` tool.
///
/// Commands:
///   datasets                     list the built-in synthetic datasets
///   schemes                      list the available aggregation schemes
///   run                          run one scheme end-to-end
///   degrade                      sweep injected dropout through the
///                                message-level protocol and report
///                                estimation error vs. loss
///   chaos                        seeded kill/restore runs: checkpoint the
///                                epoch mid-flight, crash the server at a
///                                randomized ingest point, recover from the
///                                durable snapshot, and compare against an
///                                uninterrupted run
///   serve                        run the socket-served aggregation daemon
///                                (docs/service.md): a TCP epoll server
///                                feeding one epoch engine; SIGTERM/SIGINT
///                                shut down gracefully, flushing a durable
///                                checkpoint when --ckpt-dir is set;
///                                SIGUSR1 dumps the flight recorder
///   stat                         query a running daemon's live status over
///                                the control-plane kStatsRequest frame and
///                                render it as a single-screen view
///
/// `run` flags:
///   --dataset <road|checkin|landmark|storage>   synthetic input, or
///   --input <points.csv> --domain <min_lon,min_lat,max_lon,max_lat>
///           --cell <w,h>                        real CSV input
///   --scheme <psda|kdtree|cloak|sr|ug>          (default psda)
///   --setting <S1E1|S1E2|S2E1|S2E2>             privacy workload (S2E2)
///   --scale <0..1]                              synthetic cohort scale (0.05)
///   --beta <b>  --seed <s>                      protocol parameters
///   --threads <k>                               per-cluster estimation chunk
///                                               count (0 = thread-pool size;
///                                               results are independent of k)
///   --output <counts.csv>                       private estimate dump
///   --truth-output <counts.csv>                 exact histogram dump
///   --metrics-out <run.json>                    observability run report:
///                                               metrics, span tree, manifest.
///                                               The suffix picks the format:
///                                               .csv flat metric snapshot,
///                                               .prom Prometheus text,
///                                               .trace.json Chrome trace,
///                                               else pldp.run_report/1 JSON
///
/// `degrade` takes the same input flags plus:
///   --dropout-max <r>            top of the swept dropout range (0.5)
///   --dropout-steps <k>          sweep points between 0 and the max (10)
///   --runs <n>                   seeded replicates per rate (5)
///   --retries <a>                transport attempts per message (3)
///   --output <sweep.csv>         per-point degradation CSV
///
/// `chaos` takes the same input flags plus:
///   --epochs <n>                 seeded kill/restore epochs (3)
///   --ckpt-dir <dir>             checkpoint directory (default
///                                chaos-ckpt under the working directory)
///   --ckpt-every <k>             snapshot cadence in accepted reports (16)
///   --crash-prob <p>             channel crash_probability fault (0)
///   --shed <f>                   admission overload: serve only 1-f
///                                reports' capacity per arrival behind a
///                                bounded queue, shedding ~f of the load (0)
///   --retries <a>                transport attempts per message (3)
///   --output <chaos.csv>         per-epoch recovery CSV
///
/// `serve` takes the dataset/--beta/--seed/--threads flags (they define the
/// public taxonomy and the protocol parameters, which must match the
/// clients') plus:
///   --bind <addr>                listen address (127.0.0.1)
///   --port <p>                   listen port (0 = kernel-assigned,
///                                printed on stdout)
///   --backlog <n>                listen(2) backlog (1024)
///   --io-threads <n>             epoll I/O threads (0 = $PLDP_NET_THREADS,
///                                else 2)
///   --epoch <n>                  epoch number stamped into checkpoints (0)
///   --ckpt-dir <dir>             enable durable snapshots in <dir>
///   --resume                     restore the newest snapshot before serving
///   --shed <f>                   admission overload (as in chaos)
///   --once                       exit once the epoch publishes and its
///                                estimates were fetched (or no client is
///                                connected)
///   --output <counts.csv>        published estimate dump (with --once)
///   --admin-port <p>             serve the live-introspection HTTP endpoint
///                                (GET /metrics Prometheus text, GET /status
///                                JSON) on this port (0 = kernel-assigned;
///                                flag absent = endpoint disabled)
///   --flight-out <dump.json>     enable the flight recorder; the ring is
///                                dumped to this Chrome-trace file on
///                                SIGUSR1, on decoder poison, and at
///                                graceful shutdown
///   --flight-events <n>          flight-recorder ring capacity (65536)
///
/// `stat` flags:
///   --connect <host:port>        daemon to query (required)
///   --watch <seconds>            re-render every N seconds until
///                                interrupted (0 = print once and exit)
struct CliOptions {
  std::string command;

  std::string dataset;
  std::string input_csv;
  double domain[4] = {0, 0, 0, 0};
  double cell_width = 1.0;
  double cell_height = 1.0;

  std::string scheme = "psda";
  std::string setting = "S2E2";
  double scale = 0.05;
  double beta = 0.1;
  uint64_t seed = 2016;
  uint32_t threads = 0;

  std::string output_csv;
  std::string truth_output_csv;
  std::string metrics_out;

  double dropout_max = 0.5;
  uint32_t dropout_steps = 10;
  uint32_t runs = 5;
  uint32_t retries = 3;

  uint32_t epochs = 3;
  std::string ckpt_dir = "chaos-ckpt";
  /// True when --ckpt-dir was passed explicitly; `serve` only checkpoints
  /// then (the chaos default dir must not silently enable daemon snapshots).
  bool ckpt_dir_set = false;
  uint64_t ckpt_every = 16;
  double crash_prob = 0.0;
  double shed = 0.0;

  std::string bind = "127.0.0.1";
  uint32_t port = 0;
  uint32_t backlog = 1024;
  uint32_t io_threads = 0;
  uint64_t epoch = 0;
  bool resume = false;
  bool serve_once = false;

  /// serve introspection: --admin-port enables the HTTP endpoint,
  /// --flight-out enables the flight recorder.
  uint32_t admin_port = 0;
  bool admin_port_set = false;
  std::string flight_out;
  uint64_t flight_events = 65536;

  /// stat: the daemon to query and the re-render cadence.
  std::string connect;
  uint32_t watch = 0;
};

/// Parses argv (without the program name). Returns a descriptive
/// InvalidArgument status on any unknown or malformed flag.
StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// One-line usage text.
std::string CliUsage();

/// Executes the parsed command; human-readable output goes to `out`.
Status RunCli(const CliOptions& options, std::ostream& out);

}  // namespace pldp

#endif  // PLDP_CLI_CLI_H_
