#include "core/simd_select.h"

#include <cctype>
#include <cstdlib>

#include "util/cpu.h"
#include "util/logging.h"

namespace pldp {
namespace internal_simd {
namespace {

bool TokenEquals(const char* value, const char* token) {
  size_t i = 0;
  for (; value[i] != '\0' && token[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) != token[i]) {
      return false;
    }
  }
  return value[i] == '\0' && token[i] == '\0';
}

}  // namespace

bool Avx2Runnable() {
#ifdef PLDP_ENABLE_SIMD
  return GetCpuFeatures().avx2 && GetCpuFeatures().fma;
#else
  return false;
#endif
}

bool SelectAvx2(const char* env_var, const char* family) {
  const char* token = std::getenv(env_var);
  const bool runnable = Avx2Runnable();
  bool avx2 = runnable;
  if (token == nullptr || token[0] == '\0' || TokenEquals(token, "auto")) {
    // The best runnable kernel.
  } else if (TokenEquals(token, "scalar")) {
    avx2 = false;
  } else if (TokenEquals(token, "avx2")) {
    if (!runnable) {
      PLDP_LOG(Warning) << env_var
                        << "=avx2 requested but the avx2 kernel is "
                           "unavailable on this host/build; falling back to "
                           "scalar";
    }
  } else {
    PLDP_LOG(Warning) << "unrecognized " << env_var << " \"" << token
                      << "\" (expected scalar/avx2/auto); using auto";
  }
  PLDP_LOG(Info) << family << " kernel: " << (avx2 ? "avx2" : "scalar")
                 << " (cpu: " << CpuFeaturesSummary()
#ifdef PLDP_ENABLE_SIMD
                 << ", simd kernels compiled in"
#else
                 << ", simd kernels not compiled"
#endif
                 << ")";
  return avx2;
}

}  // namespace internal_simd
}  // namespace pldp
