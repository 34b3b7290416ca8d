#include "dwt.hpp"

#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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
// 2-D transform on deinterleaved halves.
//
// A level's lifting steps never run on interleaved data.  Along either axis
// the signal is held as two halves, low L[0..nl) (even samples) and high
// H[0..nh) (odd samples), and a step updates every sample i of one half from
// two neighbours of the other:
//   low  update: L[i] op= f(H[i-1], H[i])
//   high update: H[i] op= f(L[i],   L[i+1])
// Whole-sample symmetric extension of the interleaved signal (the at()
// extension of the 1-D functions above) reduces to clamping the neighbour
// index into the other half: H[-1] is H[0], and the one past-the-end
// neighbour is the other half's last sample.  That is the only boundary rule,
// shared by the forward and inverse transforms of both banks and by both
// axes, and it leaves the interior of every step one call to a row kernel
// (kernels.hpp) — no per-sample index arithmetic.  Each output sample sees
// the same operands as in the 1-D functions, so the result is bit-exact with
// them (kernels.cpp's flags keep every 9/7 multiply rounded before its add).
//
// Horizontally the halves are the two ends of one row; vertically they are
// the top and bottom row blocks of the region and a "sample" is a whole row.
// The interleave (inverse) or deinterleave (forward) of samples happens once
// per row, on the way into or out of the level scratch `grid`, and the row
// interleave is folded into the same write: two memory passes per level.
// ---------------------------------------------------------------------------

/// One lifting step as row-kernel runs: `run(i, j, k, count)` updates
/// targets i..i+count-1 of the lifted half (`nd` samples) from samples j..
/// and k.. of the other half (`ns` samples).  Target i's neighbours are
/// i+o-1 and i+o, with o = 0 for the low half and 1 for the high half; a
/// neighbour outside [0, ns) is the nearest end sample, so the at most one
/// end target on each side sees that sample twice.
template <typename Run>
void lift_runs(int nd, int ns, int o, Run run)
{
    const int first = 1 - o;                // low: L[0] has no H[-1]
    const int last = std::min(nd, ns - o);  // past the last with both inside
    if (first > 0) run(0, 0, 0, 1);
    run(first, first + o - 1, first + o, last - first);
    if (last < nd) run(last, ns - 1, ns - 1, 1);
}

/// The halves of one deinterleaved row of n >= 2 samples.
template <typename T>
struct row_halves {
    T* lo;
    T* hi;
    int nl;
    int nh;

    row_halves(T* x, int n) : lo{x}, hi{x + (n + 1) / 2}, nl{(n + 1) / 2}, nh{n / 2} {}

    template <typename Kernel>
    void lift_lo(Kernel k)
    {
        lift_runs(nl, nh, 0, [&](int i, int j, int m, int c) { k(lo + i, hi + j, hi + m, c); });
    }
    template <typename Kernel>
    void lift_hi(Kernel k)
    {
        lift_runs(nh, nl, 1, [&](int i, int j, int m, int c) { k(hi + i, lo + j, lo + m, c); });
    }
    void scale(double kl, double kh)
    {
        scale97(lo, kl, nl);
        scale97(hi, kh, nh);
    }
};

/// The halves of a region of h >= 2 deinterleaved rows of w samples: low
/// rows 0..nl, high rows nl..h, `stride` apart.
template <typename T>
struct column_halves {
    T* base;
    std::ptrdiff_t stride;
    int w;
    int nl;
    int nh;

    column_halves(T* data, std::ptrdiff_t s, int width, int h)
        : base{data}, stride{s}, w{width}, nl{(h + 1) / 2}, nh{h / 2}
    {
    }

    [[nodiscard]] T* row(int r) const { return base + r * stride; }

    template <typename Kernel>
    void lift(int nd, int d0, int ns, int s0, int o, Kernel k)
    {
        lift_runs(nd, ns, o, [&](int i, int j, int m, int c) {
            for (int r = 0; r < c; ++r)
                k(row(d0 + i + r), row(s0 + j + r), row(s0 + m + r), w);
        });
    }
    template <typename Kernel>
    void lift_lo(Kernel k)
    {
        lift(nl, 0, nh, nl, 0, k);
    }
    template <typename Kernel>
    void lift_hi(Kernel k)
    {
        lift(nh, nl, nl, 0, 1, k);
    }
    void scale(double kl, double kh)
    {
        for (int r = 0; r < nl; ++r) scale97(row(r), kl, w);
        for (int r = nl; r < nl + nh; ++r) scale97(row(r), kh, w);
    }
};

/// 9/7 lift by a fixed coefficient, in the row-kernel signature.
[[nodiscard]] auto lift_by(double k)
{
    return [k](double* d, const double* a, const double* b, int n) { lift97(d, a, b, k, n); };
}

// The lifting programs (ISO/IEC 15444-1 F.3.8.2 / F.4.8.2), on any halves.
// Synthesis subtracts as x += (-k)*(a+b), bit for bit x -= k*(a+b) (IEEE
// negation is exact), so both directions share the one additive kernel.

struct bank53 {
    using sample = std::int32_t;
    template <typename Halves>
    static void analyze(Halves h)
    {
        h.lift_hi(lift53_sub_avg);
        h.lift_lo(lift53_add_round);
    }
    template <typename Halves>
    static void synthesize(Halves h)
    {
        h.lift_lo(lift53_sub_round);
        h.lift_hi(lift53_add_avg);
    }
};

struct bank97 {
    using sample = double;
    template <typename Halves>
    static void analyze(Halves h)
    {
        h.lift_hi(lift_by(k_alpha));
        h.lift_lo(lift_by(k_beta));
        h.lift_hi(lift_by(k_gamma));
        h.lift_lo(lift_by(k_delta));
        h.scale(1.0 / k_K, k_K);
    }
    template <typename Halves>
    static void synthesize(Halves h)
    {
        h.scale(k_K, 1.0 / k_K);
        h.lift_lo(lift_by(-k_delta));
        h.lift_hi(lift_by(-k_gamma));
        h.lift_lo(lift_by(-k_beta));
        h.lift_hi(lift_by(-k_alpha));
    }
};

/// Index of interleaved sample (or row) i within the deinterleaved order.
[[nodiscard]] constexpr int deinterleaved(int i, int n) noexcept
{
    return i % 2 == 0 ? i / 2 : (n + 1) / 2 + i / 2;
}

// ---------------------------------------------------------------------------
// One level of the transform.  `grid` is one w×h scratch reused across levels.
//   forward: each row is deinterleaved into its deinterleaved-order grid row
//            and lifted there, the grid's rows are lifted, grid → data.
//   inverse: the region's rows are lifted in place, each row is lifted in
//            place and interleaved into its interleaved-order grid row,
//            grid → data.
// ---------------------------------------------------------------------------

template <typename Bank, typename T>
void forward_level(T* data, int stride, int w, int h, std::vector<T>& grid)
{
    grid.resize(std::max(grid.size(), static_cast<std::size_t>(w) * h));
    const int nl = (w + 1) / 2;
    for (int y = 0; y < h; ++y) {
        const T* src = data + static_cast<std::ptrdiff_t>(y) * stride;
        T* dst = grid.data() + static_cast<std::ptrdiff_t>(deinterleaved(y, h)) * w;
        for (int i = 0; i < nl; ++i) dst[i] = src[2 * i];
        for (int i = 0; i < w / 2; ++i) dst[nl + i] = src[2 * i + 1];
        if (w >= 2) Bank::analyze(row_halves<T>{dst, w});
    }
    if (h >= 2) Bank::analyze(column_halves<T>{grid.data(), w, w, h});
    for (int y = 0; y < h; ++y)
        std::copy_n(grid.data() + static_cast<std::ptrdiff_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(y) * stride);
}

template <typename Bank, typename T>
void inverse_level(T* data, int stride, int w, int h, std::vector<T>& grid)
{
    grid.resize(std::max(grid.size(), static_cast<std::size_t>(w) * h));
    if (h >= 2) Bank::synthesize(column_halves<T>{data, stride, w, h});
    const int nl = (w + 1) / 2;
    for (int y = 0; y < h; ++y) {
        T* src = data + static_cast<std::ptrdiff_t>(deinterleaved(y, h)) * stride;
        T* dst = grid.data() + static_cast<std::ptrdiff_t>(y) * w;
        if (w >= 2) Bank::synthesize(row_halves<T>{src, w});
        for (int i = 0; i < nl; ++i) dst[2 * i] = src[i];
        for (int i = 0; i < w / 2; ++i) dst[2 * i + 1] = src[nl + i];
    }
    for (int y = 0; y < h; ++y)
        std::copy_n(grid.data() + static_cast<std::ptrdiff_t>(y) * w, w,
                    data + static_cast<std::ptrdiff_t>(y) * stride);
}

template <typename Bank>
void forward_multi(typename Bank::sample* data, int w, int h, int levels)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    std::vector<typename Bank::sample> grid;
    for (int l = 0; l < levels; ++l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) break;
        forward_level<Bank>(data, w, lw, lh, grid);
    }
}

template <typename Bank>
void inverse_multi(typename Bank::sample* data, int w, int h, int levels, int stop_level = 0)
{
    if (levels < 0) throw std::invalid_argument{"dwt: negative level count"};
    if (stop_level < 0 || stop_level > levels)
        throw std::invalid_argument{"dwt: bad discard level"};
    std::vector<typename Bank::sample> grid;
    for (int l = levels - 1; l >= stop_level; --l) {
        const int lw = level_extent(w, l);
        const int lh = level_extent(h, l);
        if (lw < 2 && lh < 2) continue;
        inverse_level<Bank>(data, w, lw, lh, grid);
    }
}

void check_size(const std::vector<double>& buf, int w, int h, const char* who)
{
    if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) != buf.size())
        throw std::invalid_argument{std::string{who} + ": buffer size mismatch"};
}

}  // namespace

void dwt53_forward(plane& p, int levels)
{
    forward_multi<bank53>(p.samples().data(), p.width(), p.height(), levels);
}

void dwt53_inverse(plane& p, int levels)
{
    inverse_multi<bank53>(p.samples().data(), p.width(), p.height(), levels);
}

void dwt97_forward(std::vector<double>& buf, int w, int h, int levels)
{
    check_size(buf, w, h, "dwt97_forward");
    forward_multi<bank97>(buf.data(), w, h, levels);
}

void dwt97_inverse(std::vector<double>& buf, int w, int h, int levels)
{
    check_size(buf, w, h, "dwt97_inverse");
    inverse_multi<bank97>(buf.data(), w, h, levels);
}

void dwt53_inverse_partial(plane& p, int levels, int discard)
{
    inverse_multi<bank53>(p.samples().data(), p.width(), p.height(), levels, discard);
}

void dwt97_inverse_partial(std::vector<double>& buf, int w, int h, int levels,
                           int discard)
{
    check_size(buf, w, h, "dwt97_inverse_partial");
    inverse_multi<bank97>(buf.data(), w, h, levels, discard);
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
