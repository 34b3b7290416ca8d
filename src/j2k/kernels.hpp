// j2k/kernels.hpp — the row kernels of the decode hot path.
//
// The inner loops of the IDWT lifting steps, the inverse colour transforms,
// and dequantisation are elementwise over rows.  They live in one TU built
// with -ffp-contract=off (every double multiply rounds before its add, so
// results do not depend on whether the target has FMA), -fno-trapping-math
// (which lets GCC vectorise the ICT and dequant selects at the baseline ISA)
// and the dynamic vectoriser cost model (so -O2 builds vectorise too).  The
// loops are written for the auto-vectoriser.
#pragma once

#include <cstddef>
#include <cstdint>

namespace j2k {

/// The kernel set in use, as reported on /metrics and by the benchmark.
enum class kernel_isa : std::uint8_t {
    scalar = 0,  ///< portable kernels, vectorised by the compiler
};

[[nodiscard]] constexpr const char* kernel_isa_name(kernel_isa) noexcept
{
    return "scalar";
}

[[nodiscard]] constexpr kernel_isa active_kernel_isa() noexcept
{
    return kernel_isa::scalar;
}

// All row kernels are elementwise: d[i] is a pure function of d[i], a[i],
// b[i] — callers handle boundary mirroring by choosing which rows to pass
// (a and b may alias each other and d).

// 5/3 integer lifting over a row of n samples.
void lift53_sub_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n);  ///< d -= (a+b)>>1
void lift53_add_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                    int n);  ///< d += (a+b)>>1
void lift53_add_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n);  ///< d += (a+b+2)>>2
void lift53_sub_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n);  ///< d -= (a+b+2)>>2

// 9/7 double-precision lifting / scaling over a row of n samples.
void lift97(double* d, const double* a, const double* b, double k,
            int n);                       ///< d += k*(a+b)
void scale97(double* d, double k, int n);  ///< d *= k

/// Inverse ICT over n samples of three planes, in place.  Results round half
/// away from zero and saturate to ±(2^31-1).
void ict_inverse_rows(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                      std::size_t n) noexcept;
/// Inverse RCT over n samples of three planes, in place.
void rct_inverse_rows(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                      std::size_t n) noexcept;

/// Midpoint-reconstruction dequantiser:
/// out[i] = q[i] == 0 ? 0 : sign(q[i]) * (|q[i]| + 0.5) * step.
void dequant_row(const std::int32_t* q, double* out, double step,
                 std::size_t n) noexcept;

}  // namespace j2k
