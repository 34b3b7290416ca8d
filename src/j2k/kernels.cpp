// Row kernels (see kernels.hpp for the build flags this TU relies on).

#include "kernels.hpp"

#include <algorithm>
#include <cmath>

namespace j2k {

void lift53_sub_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i]) >> 1;
}

void lift53_add_avg(std::int32_t* d, const std::int32_t* a, const std::int32_t* b, int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i]) >> 1;
}

void lift53_add_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] += (a[i] + b[i] + 2) >> 2;
}

void lift53_sub_round(std::int32_t* d, const std::int32_t* a, const std::int32_t* b,
                      int n)
{
    for (int i = 0; i < n; ++i) d[i] -= (a[i] + b[i] + 2) >> 2;
}

void lift97(double* d, const double* a, const double* b, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] += k * (a[i] + b[i]);
}

void scale97(double* d, double k, int n)
{
    for (int i = 0; i < n; ++i) d[i] *= k;
}

namespace {

/// Round half away from zero, saturating to ±(2^31-1): truncating
/// |v| + 0.5 is floor for non-negative values, and the clamp keeps the
/// conversion inside int32 for any input.
[[nodiscard]] inline std::int32_t round_sat(double v) noexcept
{
    const auto m = static_cast<std::int32_t>(std::min(std::fabs(v) + 0.5, 2147483647.0));
    return v < 0.0 ? -m : m;
}

}  // namespace

void ict_inverse_rows(std::int32_t* y, std::int32_t* cb, std::int32_t* cr,
                      std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i) {
        const double Y = y[i], Cb = cb[i], Cr = cr[i];
        const double R = Y + 1.402 * Cr;
        const double G = Y - 0.344136 * Cb - 0.714136 * Cr;
        const double B = Y + 1.772 * Cb;
        y[i] = round_sat(R);
        cb[i] = round_sat(G);
        cr[i] = round_sat(B);
    }
}

void rct_inverse_rows(std::int32_t* y, std::int32_t* u, std::int32_t* v,
                      std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t Y = y[i], U = u[i], V = v[i];
        const std::int32_t G = Y - ((U + V) >> 2);
        y[i] = V + G;
        u[i] = G;
        v[i] = U + G;
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
