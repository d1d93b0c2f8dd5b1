#ifndef PLDP_E2EBENCH_BENCH_H_
#define PLDP_E2EBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark driver: run options, the
// workload table, the seeded cohort every workload starts from, the metric
// sink that prints the result line, and small measurement helpers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/privacy_spec.h"
#include "geo/taxonomy.h"
#include "obs/trace.h"
#include "util/status_or.h"

namespace pldp {
namespace e2ebench {

/// Command-line options of one benchmark run.
struct BenchOptions {
  std::string workload;
  uint64_t seed = 2016;
  /// Measuring time: untraced epochs repeat until their summed wall time
  /// reaches it (always at least kMinEpochs). The traced run times one
  /// untraced and one traced epoch.
  double seconds = 30.0;
  /// true = the traced run, which prints the per-layer metrics.
  bool trace = false;
  /// Self-test knob: every cohort shrinks to this fraction of its users.
  double user_fraction = 1.0;
  /// Self-test knob: corrupt one published estimate before the checks.
  bool flip_bit = false;
  /// Where the traced run writes its spans as a Chrome trace: next to the
  /// binary, as <workload>.trace.json.
  std::string trace_file;
};

/// One named workload: which cohort it derives and which pipeline drives it.
struct Workload {
  std::string name;
  std::string dataset;
  double scale = 1.0;
  /// 0 keeps the dataset's own users; otherwise its cells are cycled to
  /// exactly this many users (the pldp_loadgen --users rule).
  uint64_t users = 0;
  /// false = in-process RunPsda, true = loopback daemon.
  bool serve = false;
};

const std::vector<Workload>& Workloads();

/// Where the time of building a cohort goes (the data and geo layers).
struct SetupTimes {
  double generate_s = 0.0;
  double taxonomy_s = 0.0;
  double assign_specs_s = 0.0;
  double total() const { return generate_s + taxonomy_s + assign_specs_s; }
};

/// The dataset layout of every workload is generated with this seed, so a
/// workload keeps its cells, groups and clusters across runs; the run's
/// --seed draws the specs and all protocol randomness. At --seed 2016 a
/// cohort is exactly the one `pldp_cli run` and `pldp_loadgen` build.
inline constexpr uint64_t kLayoutSeed = 2016;

/// A workload's inputs, derived as `pldp_cli run` and `pldp_loadgen` derive
/// them: GenerateByName, a fanout-4 taxonomy, S2E2 specs from AssignSpecs.
struct Cohort {
  SpatialTaxonomy taxonomy;
  std::vector<UserRecord> users;
  /// True per-cell user counts of this cohort.
  std::vector<double> truth;
};

/// Builds a workload's cohort and times each stage. A run builds the cohort
/// it uses before its first epoch and times one more build after every
/// untraced epoch, so the per-stage medians that make setup_s sample the
/// whole run rather than one moment of it.
class SetupSampler {
 public:
  SetupSampler(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed) {}

  StatusOr<std::unique_ptr<Cohort>> Build();
  /// Per-stage medians over every build so far.
  SetupTimes Median() const;

 private:
  const Workload& workload_;
  uint64_t seed_;
  std::vector<SetupTimes> samples_;
};

/// Fewest epochs an untraced run times, however short its --seconds.
inline constexpr size_t kMinEpochs = 3;

/// The metrics of one run, in the order BENCHMARK.json lists them. Every
/// run prints all end-to-end metrics (untraced) or all per-layer metrics
/// (traced); a per-layer metric a workload does not exercise prints 0.
class RunResult {
 public:
  explicit RunResult(bool trace) : trace_(trace) {}

  /// Sets a metric of either list (only the run's own list prints); setting
  /// an undeclared name is a program bug.
  void Set(const std::string& name, double value);

  /// Counts operations; a failed output check fails the whole run.
  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n) { failed_ += n; }
  void FailCheck(const std::string& what);
  bool correct() const { return correct_; }

  /// Prints a readable table, then the result JSON as the last stdout line.
  void Print() const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Run one workload and fill `result`. Every failure — an error status, a
/// rejected operation, a wrong estimate — lands in `result` as a failed
/// check, so a failing run still prints its result line.
void RunPsdaWorkload(const BenchOptions& options, const Workload& workload,
                     RunResult* result);
void RunServeWorkload(const BenchOptions& options, const Workload& workload,
                      RunResult* result);

// --- Measurement helpers. ---

/// A run's epoch-level timings are medians over its epochs: a single epoch
/// moves by 5-20% on a shared virtual machine, the median of a run by a few
/// percent (README.md, "Noise").
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
/// CPU time of the whole process (every thread) so far.
CpuTimes ProcessCpu();

/// Summed duration of every closed span called `name`, in milliseconds.
double SpanMillis(const std::vector<obs::SpanRecord>& spans,
                  const std::string& name);

/// Starts recording spans on the global collector (fresh records).
void BeginTrace();
/// Stops recording; writes the spans to `path` as a Chrome trace when set.
std::vector<obs::SpanRecord> EndTrace(const std::string& path);

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b);

/// Self-test corruption: flips the sign bit of the largest-magnitude
/// estimate, which every output check must catch.
void FlipOneBit(std::vector<double>* estimates);

/// Sets est_kl and est_max_abs_err against the cohort's truth, each the mean
/// over `draws` (published estimates of distinct protocol seeds); a failed
/// check when they cannot be computed.
void ScoreEstimates(const Cohort& cohort,
                    const std::vector<std::vector<double>>& draws,
                    RunResult* result);

}  // namespace e2ebench
}  // namespace pldp

#endif  // PLDP_E2EBENCH_BENCH_H_
