// Runtime ISA dispatch for the compute kernels (src/kernels).
//
// The data-intensive modules' hot loops (distance matrix, k-means
// assignment, sort classification) exist in two implementations: a
// portable scalar path and a SIMD path compiled into separate
// translation units with -mavx2 (and, for module 2's block kernel and
// module 5's assignment, -mavx512f -mavx512dq).  `Isa::kSimd` runs the
// widest tier the host has: AVX-512 for `distance_rows` and
// `assign_points` when the CPU and OS support it, AVX2 everywhere else.  Which path runs is decided once, at startup, from
// cpuid — never per call — and can be forced for experiments and CI:
//
//   * `Policy::kScalar` / `Policy::kSimd`: an explicit request (the
//     dipdc `--kernel=` flag and module `Config::kernel` fields).
//     Forcing SIMD on a host without AVX2 support is an error.
//   * `Policy::kAuto` (the default): the `DIPDC_KERNEL` environment
//     variable if set ("scalar" or "simd"; "simd" quietly falls back to
//     scalar when unsupported so a single CI matrix works everywhere),
//     otherwise whatever cpuid says.
//
// The two paths are contractually **bit-identical**: every kernel fixes
// its floating-point accumulation order to the 4-lane scheme described
// in kernels/detail/canonical.hpp, and the kernel TUs are compiled with
// -ffp-contract=off so no path gains an FMA the other lacks.  Switching
// `--kernel=` must never change a checksum, an assignment, or an
// iteration count — only the wall clock.
#pragma once

#include <string_view>

namespace dipdc::kernels {

/// The instruction set a kernel call actually executes with.
enum class Isa {
  kScalar,  // portable C++, 4-lane blocked accumulation
  kSimd,    // widest SIMD tier (AVX2, AVX-512), same accumulation order
};

/// What the caller asked for; resolved to an Isa once per run.
enum class Policy {
  kAuto,    // DIPDC_KERNEL env override, else cpuid
  kScalar,  // force the portable path
  kSimd,    // force SIMD (error if the host lacks AVX2)
};

/// True when the AVX2 path is compiled in *and* the CPU reports AVX2.
[[nodiscard]] bool simd_supported();

/// True when `Isa::kSimd` runs the AVX-512 tier of `distance_rows` and
/// `assign_points`: the AVX2 and AVX-512 paths are compiled in and the
/// CPU (with OS support) reports avx512f and avx512dq.
[[nodiscard]] bool avx512_supported();

/// Resolves a policy to the ISA that will run.  kAuto consults
/// DIPDC_KERNEL and then cpuid; kSimd throws support::PreconditionError
/// when `simd_supported()` is false.
[[nodiscard]] Isa resolve(Policy policy);

/// Parses "auto" | "scalar" | "simd" (throws support::PreconditionError
/// on anything else).
[[nodiscard]] Policy parse_policy(std::string_view text);

[[nodiscard]] const char* isa_name(Isa isa);
[[nodiscard]] const char* policy_name(Policy policy);

}  // namespace dipdc::kernels
