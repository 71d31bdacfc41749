#include "kernels/dispatch.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"

namespace dipdc::kernels {

namespace {

bool cpu_has_avx2() {
#if defined(DIPDC_KERNELS_HAVE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(DIPDC_KERNELS_HAVE_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

/// DIPDC_KERNEL environment override, read once.  Empty/unset means no
/// override; "simd" on a host without AVX2 degrades to scalar (the CI
/// matrix exports the variable unconditionally).
Isa auto_isa() {
  static const Isa resolved = [] {
    const char* env = std::getenv("DIPDC_KERNEL");
    if (env != nullptr && *env != '\0') {
      const Policy policy = parse_policy(env);
      if (policy == Policy::kScalar) return Isa::kScalar;
      if (policy == Policy::kSimd) {
        return simd_supported() ? Isa::kSimd : Isa::kScalar;
      }
    }
    return simd_supported() ? Isa::kSimd : Isa::kScalar;
  }();
  return resolved;
}

}  // namespace

bool simd_supported() {
  static const bool supported = cpu_has_avx2();
  return supported;
}

bool avx512_supported() {
  static const bool supported = simd_supported() && cpu_has_avx512();
  return supported;
}

Isa resolve(Policy policy) {
  switch (policy) {
    case Policy::kScalar:
      return Isa::kScalar;
    case Policy::kSimd:
      DIPDC_REQUIRE(simd_supported(),
                    "kernel=simd requested but this build/host has no AVX2");
      return Isa::kSimd;
    case Policy::kAuto:
      break;
  }
  return auto_isa();
}

Policy parse_policy(std::string_view text) {
  if (text == "auto") return Policy::kAuto;
  if (text == "scalar") return Policy::kScalar;
  if (text == "simd") return Policy::kSimd;
  support::throw_precondition_failure(
      "parse_policy", "unknown kernel policy '" + std::string(text) +
                          "' (expected auto|scalar|simd)");
}

const char* isa_name(Isa isa) {
  return isa == Isa::kSimd ? "simd" : "scalar";
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kScalar:
      return "scalar";
    case Policy::kSimd:
      return "simd";
    case Policy::kAuto:
      break;
  }
  return "auto";
}

}  // namespace dipdc::kernels
