// Row kernels (see kernels.hpp for the build flags this TU relies on).

#include "kernels.hpp"

#include <cmath>

namespace j2k {

namespace {

// 5/3 lifting and the RCT run in two's-complement wrap-around: identical to
// int32 arithmetic wherever that is defined, and defined (not UB) for the
// out-of-range coefficients a hostile stream can decode to.
[[nodiscard]] inline std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                     static_cast<std::uint32_t>(b));
}

[[nodiscard]] inline std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                     static_cast<std::uint32_t>(b));
}

/// std::lround's value, saturated to ±(2^31-1); NaN gives 0.  For
/// |v| >= 0.5, truncating fl(|v| + 0.5) is floor(|v| + 0.5): the sum is
/// exact unless it enters the next binade, and then it rounds to within an
/// ulp of that power of two, never up to the next integer.  Below 0.5 the
/// sum can round up to 1.0 (0.49999999999999994 + 0.5), and the answer
/// there is 0.  Truncation is symmetric, so the sign is restored before it.
/// All selects, so GCC vectorises it at the baseline ISA.
[[nodiscard]] inline std::int32_t round_exact(double v) noexcept
{
    constexpr double lim = 2147483647.0;
    const double a = std::fabs(v);
    const double s = a + 0.5 < lim ? a + 0.5 : lim;
    return static_cast<std::int32_t>(std::copysign(a >= 0.5 ? s : 0.0, v));
}

}  // namespace

void lift53_sub_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] = wrap_sub(d[i], wrap_add(a[i], b[i]) >> 1);
}

void lift53_add_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] = wrap_add(d[i], wrap_add(a[i], b[i]) >> 1);
}

void lift53_add_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] = wrap_add(d[i], wrap_add(wrap_add(a[i], b[i]), 2) >> 2);
}

void lift53_sub_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] = wrap_sub(d[i], wrap_add(wrap_add(a[i], b[i]), 2) >> 2);
}

void lift97(double* d, const double* a, const double* b, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

void scale97(double* d, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] *= k;
}

void round_row(const double* v, std::int32_t* out, std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i) out[i] = round_exact(v[i]);
}

void ict_inverse_rows(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                      std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i) {
        const double Y = y[i], Cb = cb[i], Cr = cr[i];
        const double R = Y + 1.402 * Cr;
        const double G = Y - 0.344136 * Cb - 0.714136 * Cr;
        const double B = Y + 1.772 * Cb;
        y[i] = round_exact(R);
        cb[i] = round_exact(G);
        cr[i] = round_exact(B);
    }
}

void rct_inverse_rows(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                      std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t Y = y[i], U = u[i], V = v[i];
        const std::int32_t G = wrap_sub(Y, wrap_add(U, V) >> 2);
        y[i] = wrap_add(V, G);
        u[i] = G;
        v[i] = wrap_add(U, G);
    }
}

void dequant_row(const std::int32_t* q, double* out, double step, std::size_t n) noexcept
{
    // Selects in the double domain rather than branches on q, so the loop
    // vectorises; the value is the branching formula's bit for bit.
    for (std::size_t i = 0; i < n; ++i) {
        const double d = q[i];
        const double m = (std::fabs(d) + 0.5) * step;
        out[i] = d == 0.0 ? 0.0 : (d < 0.0 ? -m : m);
    }
}

}  // namespace j2k
