#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench.h"
#include "data/spec_assignment.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/chrome_trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pldp {
namespace e2ebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"epoch_s", "s"},
    {"reports_per_s", "reports/s"},
    {"status_stall_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"est_kl", "nats"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.generate_s", "s"},
    {"data.assign_specs_s", "s"},
    {"geo.taxonomy_s", "s"},
    {"user_group.ms", "ms"},
    {"user_group.groups", "count"},
    {"clustering.ms", "ms"},
    {"clustering.merges", "count"},
    {"clustering.clusters", "count"},
    {"clustering.us_per_merge", "us"},
    {"pcep.ms", "ms"},
    {"pcep.encode_ms", "ms"},
    {"pcep.encode_users_per_s", "users/s"},
    {"pcep.decode_ms", "ms"},
    {"pcep.decode_rows", "count"},
    {"pcep.decode_rows_per_s", "rows/s"},
    {"consistency.ms", "ms"},
    {"net.spec_upload_s", "s"},
    {"net.specs_per_s", "specs/s"},
    {"net.seal_specs_s", "s"},
    {"net.report_phase_s", "s"},
    {"net.seal_epoch_s", "s"},
    {"net.fetch_s", "s"},
    {"net.ack_p50_ms", "ms"},
    {"net.ack_p99_ms", "ms"},
    {"net.ack_samples", "count"},
    {"net.frames_per_user", "frames"},
    {"net.bytes_up_per_user", "B"},
    {"net.bytes_down_per_user", "B"},
    {"net.frame_errors", "count"},
    {"net.report_user_cpu_s", "s"},
    {"net.report_sys_cpu_s", "s"},
    {"engine.reports_staged", "count"},
    {"engine.reports_folded", "count"},
    {"engine.reports_shed", "count"},
    {"engine.reports_duplicate", "count"},
    {"engine.late_frames", "count"},
    {"net.status_p50_ms", "ms"},
    {"net.status_max_ms", "ms"},
    {"net.status_probes", "count"},
    {"est_max_abs_err", "users"},
    {"traced_epoch_ms", "ms"},
    {"epoch_cpu_s", "s"},
    {"unattributed_ms", "ms"},
    {"trace_overhead_pct", "%"},
};

template <size_t N>
bool Declared(const MetricDef (&defs)[N], const std::string& name) {
  return std::any_of(std::begin(defs), std::end(defs),
                     [&](const MetricDef& d) { return name == d.name; });
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

StatusOr<std::unique_ptr<Cohort>> BuildCohort(const Workload& workload,
                                              uint64_t seed,
                                              SetupTimes* times) {
  Stopwatch watch;
  PLDP_ASSIGN_OR_RETURN(
      const Dataset dataset,
      GenerateByName(workload.dataset, workload.scale, kLayoutSeed));
  PLDP_ASSIGN_OR_RETURN(const UniformGrid grid, dataset.MakeGrid());
  std::vector<CellId> cells = dataset.ToCells(grid);
  times->generate_s = watch.ElapsedSeconds();

  watch.Restart();
  PLDP_ASSIGN_OR_RETURN(SpatialTaxonomy taxonomy,
                        SpatialTaxonomy::Build(grid, 4));
  times->taxonomy_s = watch.ElapsedSeconds();

  watch.Restart();
  if (workload.users != 0 && workload.users != cells.size()) {
    std::vector<CellId> cycled(workload.users);
    for (uint64_t i = 0; i < workload.users; ++i) {
      cycled[i] = cells[i % cells.size()];
    }
    cells = std::move(cycled);
  }
  PLDP_ASSIGN_OR_RETURN(
      std::vector<UserRecord> users,
      AssignSpecs(taxonomy, cells, SafeRegionsS2(), EpsilonsE2(),
                  seed ^ 0x5E771265));
  times->assign_specs_s = watch.ElapsedSeconds();

  std::vector<double> truth(grid.num_cells(), 0.0);
  for (const CellId cell : cells) truth[cell] += 1.0;
  return std::make_unique<Cohort>(
      Cohort{std::move(taxonomy), std::move(users), std::move(truth)});
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"psda_checkin", "checkin", 0.15, 0, false},
      {"serve_road", "road", 0.05, 200000, true},
      {"serve_checkin", "checkin", 0.1, 0, true},
  };
  return kWorkloads;
}

StatusOr<std::unique_ptr<Cohort>> SetupSampler::Build() {
  SetupTimes times;
  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<Cohort> cohort,
                        BuildCohort(workload_, seed_, &times));
  samples_.push_back(times);
  return cohort;
}

SetupTimes SetupSampler::Median() const {
  std::vector<double> gen, tax, assign;
  for (const SetupTimes& times : samples_) {
    gen.push_back(times.generate_s);
    tax.push_back(times.taxonomy_s);
    assign.push_back(times.assign_specs_s);
  }
  return {e2ebench::Median(gen), e2ebench::Median(tax),
          e2ebench::Median(assign)};
}

void RunResult::Set(const std::string& name, double value) {
  PLDP_CHECK(Declared(kEndToEnd, name) || Declared(kPerLayer, name))
      << "undeclared metric " << name;
  values_[name] = value;
}

void RunResult::FailCheck(const std::string& what) {
  std::cerr << "output check FAILED: " << what << "\n";
  correct_ = false;
}

void RunResult::Print() const {
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  const uint64_t failed = correct_ ? std::min(failed_, attempted) : attempted;
  std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  auto emit = [&](const auto& defs) {
    bool first = true;
    for (const MetricDef& def : defs) {
      const auto it = values_.find(def.name);
      const double value = it == values_.end() ? 0.0 : it->second;
      std::printf("  %-26s %-14.6g %s\n", def.name, value, def.unit);
      json += std::string(first ? "" : ", ") + "\"" + def.name +
              "\": {\"value\": " + FormatNumber(value) + ", \"unit\": \"" +
              def.unit + "\"}";
      first = false;
    }
  };
  if (trace_) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::printf("  %-26s %-14.6g %s (%" PRIu64 "/%" PRIu64 ")\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "fraction", failed, attempted);
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double SpanMillis(const std::vector<obs::SpanRecord>& spans,
                  const std::string& name) {
  double total = 0.0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name && span.duration_ms >= 0.0) {
      total += span.duration_ms;
    }
  }
  return total;
}

void BeginTrace() {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Reset();
  collector.set_enabled(true);
}

std::vector<obs::SpanRecord> EndTrace(const std::string& path) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.set_enabled(false);
  if (!path.empty()) {
    const Status written = obs::WriteChromeTraceFile(path);
    if (!written.ok()) {
      std::cerr << "trace file: " << written.ToString() << "\n";
    }
  }
  return collector.Snapshot();
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void FlipOneBit(std::vector<double>* estimates) {
  if (estimates->empty()) return;
  const auto largest = std::max_element(
      estimates->begin(), estimates->end(),
      [](double x, double y) { return std::fabs(x) < std::fabs(y); });
  uint64_t bits = 0;
  std::memcpy(&bits, &*largest, sizeof(bits));
  bits ^= uint64_t{1} << 63;
  std::memcpy(&*largest, &bits, sizeof(bits));
}

void ScoreEstimates(const Cohort& cohort,
                    const std::vector<std::vector<double>>& draws,
                    RunResult* result) {
  double kl_sum = 0.0;
  double max_err_sum = 0.0;
  for (const std::vector<double>& estimates : draws) {
    const StatusOr<double> kl = KlDivergence(cohort.truth, estimates);
    const StatusOr<double> max_err = MaxAbsoluteError(cohort.truth, estimates);
    if (!kl.ok() || !max_err.ok()) {
      result->FailCheck("estimates cannot be scored: " +
                        (kl.ok() ? max_err.status() : kl.status()).ToString());
      return;
    }
    kl_sum += kl.value();
    max_err_sum += max_err.value();
  }
  const double n = static_cast<double>(draws.size());
  result->Set("est_kl", kl_sum / n);
  result->Set("est_max_abs_err", max_err_sum / n);
}

}  // namespace e2ebench
}  // namespace pldp
