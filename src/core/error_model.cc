#include "core/error_model.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/logging.h"

namespace pldp {

double CEpsilon(double epsilon) {
  PLDP_CHECK(epsilon > 0.0) << "CEpsilon requires epsilon > 0";
  // expm1 keeps the denominator accurate for small epsilon.
  return (std::exp(epsilon) + 1.0) / std::expm1(epsilon);
}

double PrivacyFactorTerm(double epsilon) {
  const double c = CEpsilon(epsilon);
  return c * c;
}

PcepBoundLogs PcepErrorBoundLogs(double beta, double region_size) {
  PLDP_CHECK(beta > 0.0 && beta < 1.0) << "beta must be in (0, 1)";
  PLDP_CHECK(region_size >= 1.0) << "region size must be at least 1";
  PcepBoundLogs logs;
  logs.sampling = std::log(4.0 * region_size / beta);
  logs.jl = std::log(2.0 * region_size / beta);
  return logs;
}

double PcepErrorBound(double beta, double n, double region_size,
                      double varsigma) {
  const PcepBoundLogs logs = PcepErrorBoundLogs(beta, region_size);
  CountBoundEvaluations(1);
  return PcepErrorBoundFromLogs(logs, n, varsigma);
}

void CountBoundEvaluations(uint64_t count) {
  // Counter, not a span: the clustering objective evaluates the bound once
  // per cluster of each forest tree a merge pass refreshes and once per
  // candidate pair it scores, so the trajectory wants the evaluation volume,
  // and the trace collector could not afford one record per evaluation.
  // Bulk callers add their whole count at once.
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "error_model.bound_evaluations");
  counter->Increment(count);
}

}  // namespace pldp
