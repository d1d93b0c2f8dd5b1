#ifndef PLDP_CORE_ERROR_MODEL_H_
#define PLDP_CORE_ERROR_MODEL_H_

#include <cmath>
#include <cstdint>

namespace pldp {

/// c_eps = (e^eps + 1) / (e^eps - 1), the debiasing constant of the local
/// randomizer (Algorithm 2). Diverges as eps -> 0. Requires eps > 0.
double CEpsilon(double epsilon);

/// The user's contribution c_eps^2 to a protocol's privacy factor
/// (the paper's varsigma = sum_i c_{eps_i}^2).
double PrivacyFactorTerm(double epsilon);

/// The two logarithms of the Theorem 4.5 bound, which depend only on the
/// confidence beta and the region size d.
struct PcepBoundLogs {
  double sampling = 0.0;  // ln(4d / beta)
  double jl = 0.0;        // ln(2d / beta)
};

/// The per-(beta, d) step of PcepErrorBound. beta must be in (0, 1) and the
/// region size at least 1.
PcepBoundLogs PcepErrorBoundLogs(double beta, double region_size);

/// The per-cluster step of PcepErrorBound: two square roots over the logs of
/// the cluster's (beta, d). n == 0 yields 0. It does not count toward
/// `error_model.bound_evaluations`; a caller that evaluates it in bulk adds
/// its count through CountBoundEvaluations.
inline double PcepErrorBoundFromLogs(const PcepBoundLogs& logs, double n,
                                     double varsigma) {
  if (n <= 0.0) return 0.0;
  const double sampling_term = std::sqrt(2.0 * varsigma * logs.sampling);
  const double jl_term = std::sqrt(n * logs.jl);
  return sampling_term + jl_term;
}

/// The Theorem 4.5 high-probability bound on PCEP's maximum absolute error:
///
///   err(beta, n, d, varsigma) = sqrt(2 * varsigma * ln(4d / beta))
///                             + sqrt(n * ln(2d / beta))
///
/// where n is the number of participating users, d the safe-region size
/// |tau|, and varsigma the privacy factor. This analytical model is what the
/// user-group clustering objective (Definition 4.1) optimizes. It is exactly
/// PcepErrorBoundFromLogs(PcepErrorBoundLogs(beta, d), n, varsigma), so a
/// table of logs gives the same bits.
///
/// Degenerate inputs (n == 0) yield 0; beta must be in (0, 1).
double PcepErrorBound(double beta, double n, double region_size,
                      double varsigma);

/// Adds `count` evaluations of the bound to `error_model.bound_evaluations`.
void CountBoundEvaluations(uint64_t count);

}  // namespace pldp

#endif  // PLDP_CORE_ERROR_MODEL_H_
