#include "dwt.hpp"

#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace j2k {

namespace {

// 9/7 lifting constants (ISO/IEC 15444-1 F.4.8.2).
constexpr double k_alpha = -1.586134342059924;
constexpr double k_beta = -0.052980118572961;
constexpr double k_gamma = 0.882911075530934;
constexpr double k_delta = 0.443506852043971;
constexpr double k_K = 1.230174104914001;

/// Mirror index for whole-sample symmetric extension on [0, n).
[[nodiscard]] constexpr int mirror(int i, int n) noexcept
{
    if (n == 1) return 0;
    const int period = 2 * (n - 1);
    int j = i % period;
    if (j < 0) j += period;
    return j < n ? j : period - j;
}

[[nodiscard]] int level_extent(int full, int level) noexcept
{
    // ceil(full / 2^level)
    int e = full;
    for (int i = 0; i < level; ++i) e = (e + 1) / 2;
    return e;
}

/// Deinterleave x (even→low half, odd→high half) using scratch.
template <typename T>
void deinterleave(T* x, int n, std::vector<T>& scratch)
{
    scratch.assign(x, x + n);
    const int nl = (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
        if (i % 2 == 0)
            x[i / 2] = scratch[static_cast<std::size_t>(i)];
        else
            x[nl + i / 2] = scratch[static_cast<std::size_t>(i)];
    }
}

/// Interleave (inverse of deinterleave).
template <typename T>
void interleave(T* x, int n, std::vector<T>& scratch)
{
    scratch.assign(x, x + n);
    const int nl = (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
        if (i % 2 == 0)
            x[i] = scratch[static_cast<std::size_t>(i / 2)];
        else
            x[i] = scratch[static_cast<std::size_t>(nl + i / 2)];
    }
}

}  // namespace

void dwt53_analyze_1d(std::int32_t* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) -> std::int32_t { return x[mirror(i, n)]; };
    // Predict: odd (high) samples.
    for (int i = 1; i < n; i += 2) x[i] -= (at(i - 1) + at(i + 1)) >> 1;
    // Update: even (low) samples.
    for (int i = 0; i < n; i += 2) x[i] += (at(i - 1) + at(i + 1) + 2) >> 2;
}

void dwt53_synthesize_1d(std::int32_t* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) -> std::int32_t { return x[mirror(i, n)]; };
    for (int i = 0; i < n; i += 2) x[i] -= (at(i - 1) + at(i + 1) + 2) >> 2;
    for (int i = 1; i < n; i += 2) x[i] += (at(i - 1) + at(i + 1)) >> 1;
}

void dwt97_analyze_1d(double* x, int n)
{
    if (n < 2) {
        return;  // single sample: pure LL, no scaling
    }
    auto at = [x, n](int i) -> double { return x[mirror(i, n)]; };
    for (int i = 1; i < n; i += 2) x[i] += k_alpha * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] += k_beta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] += k_gamma * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] += k_delta * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] *= 1.0 / k_K;  // low-pass: DC gain 1
    for (int i = 1; i < n; i += 2) x[i] *= k_K;        // high-pass
}

void dwt97_synthesize_1d(double* x, int n)
{
    if (n < 2) return;
    auto at = [x, n](int i) -> double { return x[mirror(i, n)]; };
    for (int i = 0; i < n; i += 2) x[i] *= k_K;
    for (int i = 1; i < n; i += 2) x[i] *= 1.0 / k_K;
    for (int i = 0; i < n; i += 2) x[i] -= k_delta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] -= k_gamma * (at(i - 1) + at(i + 1));
    for (int i = 0; i < n; i += 2) x[i] -= k_beta * (at(i - 1) + at(i + 1));
    for (int i = 1; i < n; i += 2) x[i] -= k_alpha * (at(i - 1) + at(i + 1));
}

namespace {

// ---------------------------------------------------------------------------
// Vertical (column-direction) passes, restructured for SIMD.
//
// The old implementation gathered every column into a strided temp and ran
// the 1-D filter on it — h loads + h stores per column, unvectorisable.  The
// lifting steps are elementwise across a row once the data is viewed in
// interleaved row order, so instead we copy the region's rows into a
// contiguous grid in interleaved order, apply each lifting step as a
// whole-row kernel (kernels.hpp), and copy back.  The per-element arithmetic
// is identical to running dwt*_1d down each column, so results are bit-exact
// with the previous layout.
//
// Row y's lifting neighbours are rows mirror(y±1, h) — passing the mirrored
// row twice at the boundary reproduces the 1-D at() extension exactly.
// ---------------------------------------------------------------------------

void vertical53_forward(std::int32_t* data, int stride, int w, int h,
                        std::int32_t* g)
{
    for (int y = 0; y < h; ++y)
        std::copy_n(data + static_cast<std::ptrdiff_t>(y) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    for (int y = 1; y < h; y += 2)
        lift53_sub_avg(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    for (int y = 0; y < h; y += 2)
        lift53_add_round(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int dst = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(dst) * stride);
    }
}

void vertical53_inverse(std::int32_t* data, int stride, int w, int h,
                        std::int32_t* g)
{
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int src = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(data + static_cast<std::ptrdiff_t>(src) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    }
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    for (int y = 0; y < h; y += 2)
        lift53_sub_round(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    for (int y = 1; y < h; y += 2)
        lift53_add_avg(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), w);
    for (int y = 0; y < h; ++y)
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(y) * stride);
}

void vertical97_forward(double* data, int stride, int w, int h, double* g)
{
    for (int y = 0; y < h; ++y)
        std::copy_n(data + static_cast<std::ptrdiff_t>(y) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    auto lift = [&](int first, double k) {
        for (int y = first; y < h; y += 2)
            lift97(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), k, w);
    };
    lift(1, k_alpha);
    lift(0, k_beta);
    lift(1, k_gamma);
    lift(0, k_delta);
    for (int y = 0; y < h; y += 2)
        scale97(g + static_cast<std::size_t>(y) * w, 1.0 / k_K, w);
    for (int y = 1; y < h; y += 2)
        scale97(g + static_cast<std::size_t>(y) * w, k_K, w);
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int dst = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(dst) * stride);
    }
}

void vertical97_inverse(double* data, int stride, int w, int h, double* g)
{
    const int nl = (h + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const int src = y % 2 == 0 ? y / 2 : nl + y / 2;
        std::copy_n(data + static_cast<std::ptrdiff_t>(src) * stride, w,
                    g + static_cast<std::size_t>(y) * w);
    }
    auto row = [g, w, h](int y) {
        return g + static_cast<std::size_t>(mirror(y, h)) * w;
    };
    for (int y = 0; y < h; y += 2)
        scale97(g + static_cast<std::size_t>(y) * w, k_K, w);
    for (int y = 1; y < h; y += 2)
        scale97(g + static_cast<std::size_t>(y) * w, 1.0 / k_K, w);
    // x -= k*(a+b) is x += (-k)*(a+b) bit for bit (IEEE negation is exact),
    // which lets synthesis share the single additive lift kernel.
    auto lift = [&](int first, double k) {
        for (int y = first; y < h; y += 2)
            lift97(g + static_cast<std::size_t>(y) * w, row(y - 1), row(y + 1), -k, w);
    };
    lift(0, k_delta);
    lift(1, k_gamma);
    lift(0, k_beta);
    lift(1, k_alpha);
    for (int y = 0; y < h; ++y)
        std::copy_n(g + static_cast<std::size_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(y) * stride);
}

// ---------------------------------------------------------------------------
// Level drivers: rows then columns (forward), columns then rows (inverse).
// `grid` is one w×h scratch reused across levels; `scratch` is 1-D row
// scratch for the de/interleave of the horizontal pass.
// ---------------------------------------------------------------------------

template <typename T, typename Fwd1D, typename Vert>
void forward_level(T* data, int stride, int w, int h, Fwd1D analyze, Vert vertical,
                   std::vector<T>& grid, std::vector<T>& scratch)
{
    if (w >= 2) {
        for (int y = 0; y < h; ++y) {
            T* row = data + static_cast<std::ptrdiff_t>(y) * stride;
            analyze(row, w);
            deinterleave(row, w, scratch);
        }
    }
    if (h >= 2) {
        if (grid.size() < static_cast<std::size_t>(w) * static_cast<std::size_t>(h))
            grid.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
        vertical(data, stride, w, h, grid.data());
    }
}

template <typename T, typename Inv1D, typename Vert>
void inverse_level(T* data, int stride, int w, int h, Inv1D synthesize, Vert vertical,
                   std::vector<T>& grid, std::vector<T>& scratch)
{
    if (h >= 2) {
        if (grid.size() < static_cast<std::size_t>(w) * static_cast<std::size_t>(h))
            grid.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
        vertical(data, stride, w, h, grid.data());
    }
    if (w >= 2) {
        for (int y = 0; y < h; ++y) {
            T* row = data + static_cast<std::ptrdiff_t>(y) * stride;
            interleave(row, w, scratch);
            synthesize(row, w);
        }
    }
}

template <typename T, typename Fwd1D, typename Vert>
void forward_multi(T* data, int stride, int w, int h, int levels, Fwd1D f,
                   Vert vertical)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    std::vector<T> grid;
    std::vector<T> scratch;
    for (int l = 0; l < levels; ++l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) break;
        forward_level(data, stride, lw, lh, f, vertical, grid, scratch);
    }
}

template <typename T, typename Inv1D, typename Vert>
void inverse_multi(T* data, int stride, int w, int h, int levels, Inv1D f,
                   Vert vertical, int stop_level = 0)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    if (stop_level < 0 || stop_level > levels)
        throw std::invalid_argument{"dwt: bad discard level"};
    std::vector<T> grid;
    std::vector<T> scratch;
    for (int l = levels - 1; l >= stop_level; --l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) continue;
        inverse_level(data, stride, lw, lh, f, vertical, grid, scratch);
    }
}

}  // namespace

void dwt53_forward(plane& p, int levels)
{
    forward_multi(p.samples().data(), p.width(), p.width(), p.height(), levels,
                  [](std::int32_t* x, int n) { dwt53_analyze_1d(x, n); },
                  vertical53_forward);
}

void dwt53_inverse(plane& p, int levels)
{
    inverse_multi(p.samples().data(), p.width(), p.width(), p.height(), levels,
                  [](std::int32_t* x, int n) { dwt53_synthesize_1d(x, n); },
                  vertical53_inverse);
}

void dwt97_forward(std::vector<double>& buf, int w, int h, int levels)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{"dwt97_forward: buffer size mismatch"};
    forward_multi(buf.data(), w, w, h, levels,
                  [](double* x, int n) { dwt97_analyze_1d(x, n); },
                  vertical97_forward);
}

void dwt97_inverse(std::vector<double>& buf, int w, int h, int levels)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{"dwt97_inverse: buffer size mismatch"};
    inverse_multi(buf.data(), w, w, h, levels,
                  [](double* x, int n) { dwt97_synthesize_1d(x, n); },
                  vertical97_inverse);
}

void dwt53_inverse_partial(plane& p, int levels, int discard)
{
    inverse_multi(p.samples().data(), p.width(), p.width(), p.height(), levels,
                  [](std::int32_t* x, int n) { dwt53_synthesize_1d(x, n); },
                  vertical53_inverse, discard);
}

void dwt97_inverse_partial(std::vector<double>& buf, int w, int h, int levels,
                           int discard)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{"dwt97_inverse_partial: buffer size mismatch"};
    inverse_multi(buf.data(), w, w, h, levels,
                  [](double* x, int n) { dwt97_synthesize_1d(x, n); },
                  vertical97_inverse, discard);
}

int reduced_extent(int full, int level) noexcept
{
    return level_extent(full, level);
}

std::vector<band_rect> subband_layout(int w, int h, int levels)
{
    if (w <= 0 || h <= 0 || levels < 0)
        throw std::invalid_argument{"subband_layout: bad geometry"};
    std::vector<band_rect> out;
    // Deepest LL first.
    out.push_back({band::ll, levels, 0, 0, level_extent(w, levels), level_extent(h, levels)});
    for (int l = levels; l >= 1; --l) {
        const int pw = level_extent(w, l - 1);
        const int ph = level_extent(h, l - 1);
        const int lw = (pw + 1) / 2;  // LL/LH width at this level
        const int lh = (ph + 1) / 2;  // LL/HL height
        out.push_back({band::hl, l, lw, 0, pw - lw, lh});
        out.push_back({band::lh, l, 0, lh, lw, ph - lh});
        out.push_back({band::hh, l, lw, lh, pw - lw, ph - lh});
    }
    return out;
}

double band_gain(band b, int level, wavelet w) noexcept
{
    if (w == wavelet::w5_3) return 1.0;  // reversible path is not quantised
    // L2 gains of the 9/7 synthesis basis, approximated per level: the low
    // branch gain is ~1 per level (DC-normalised), the high branch ~2.
    double g = 1.0;
    switch (b) {
        case band::ll: g = 1.0; break;
        case band::hl:
        case band::lh: g = 2.0; break;
        case band::hh: g = 4.0; break;
    }
    // Deeper levels spread energy over wider basis functions.
    return g / std::pow(2.0, level - 1);
}

}  // namespace j2k
