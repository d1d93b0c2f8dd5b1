#ifndef PLDP_CORE_SIMD_SELECT_H_
#define PLDP_CORE_SIMD_SELECT_H_

// The kernel selection rule shared by the PCEP decode and encode families
// (core/pcep_decode.h, core/pcep_encode.h). Internal to pldp_core, the only
// target built with PLDP_ENABLE_SIMD; include the family headers instead.

namespace pldp {
namespace internal_simd {

/// Whether the AVX2 kernels can run in this process: the binary was built
/// with PLDP_ENABLE_SIMD (the AVX2 TUs are compiled -mavx2 -mfma) and the
/// host CPU and OS support AVX2 and FMA (util/cpu.h).
bool Avx2Runnable();

/// Whether a kernel family runs its AVX2 kernel. Reads the family's
/// override `env_var` ("scalar", "avx2" or "auto", case-insensitive; unset
/// or empty means auto). Auto picks AVX2 when Avx2Runnable(). A forced avx2
/// that cannot run, or an unrecognized token, logs a warning and gets the
/// best runnable kernel. The choice is logged at info under `family`.
/// Re-reads the environment on every call, so callers cache the result.
bool SelectAvx2(const char* env_var, const char* family);

}  // namespace internal_simd
}  // namespace pldp

#endif  // PLDP_CORE_SIMD_SELECT_H_
