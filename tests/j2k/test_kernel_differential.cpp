// Kernel differential: the row kernels (lifting, colour transforms,
// dequantisation) are pinned bit for bit against recorded output.  Each
// seeded sweep decodes randomly-generated tiles, hammering the odd extents
// where mirror-boundary handling lives, and folds every decoded image's
// FNV-1a digest into one hash.  The expected hashes were recorded from the
// previous kernel implementation (a hand-written AVX2 tier checked against a
// scalar tier), so any drift in rounding, boundary handling or accumulation
// order fails here even when the golden corpus happens not to reach it.
//
// The edge-value tests cover inputs no encoder produces but a hostile
// stream can: dequantisation of extreme indices, rounding of values at and
// beyond the int32 range, and an ICT whose result leaves that range
// (saturated, never a float-to-int overflow).
#include <j2k/j2k.hpp>
#include <j2k/kernels.hpp>
#include <runtime/hash.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace {

using runtime::fnv1a_image;

/// One randomly-drawn encode configuration (seeded: failures reproduce).
struct tile_case {
    int w, h, comps, depth, levels, layers, tile;
    j2k::wavelet mode;
    std::uint32_t seed;
};

tile_case draw_case(std::mt19937& rng)
{
    // Extents biased toward the hazard set: short remainders (1..3),
    // mirror-degenerate rows/columns, and one-off-from-tile sizes.
    constexpr int k_extents[] = {1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65};
    auto pick = [&rng](auto& arr) { return arr[rng() % std::size(arr)]; };
    tile_case c{};
    c.w = pick(k_extents);
    c.h = pick(k_extents);
    c.comps = rng() % 2 == 0 ? 1 : 3;
    c.depth = rng() % 2 == 0 ? 8 : 16;
    c.levels = 1 + static_cast<int>(rng() % 3);
    c.layers = rng() % 3 == 0 ? 3 : 1;
    c.tile = rng() % 2 == 0 ? 32 : 64;
    c.mode = rng() % 2 == 0 ? j2k::wavelet::w5_3 : j2k::wavelet::w9_7;
    c.seed = rng();
    return c;
}

std::vector<std::uint8_t> encode_case(const tile_case& c)
{
    const j2k::image src =
        j2k::make_test_image(c.w, c.h, c.comps, c.depth, static_cast<int>(c.seed % 97));
    j2k::codec_params p;
    p.tile_width = c.tile;
    p.tile_height = c.tile;
    p.mode = c.mode;
    p.levels = c.levels;
    p.quality_layers = c.layers;
    return j2k::encode(src, p);
}

TEST(KernelDifferential, RandomTileSweepMatchesPinnedHash)
{
    std::mt19937 rng{0x6B72A117u};
    runtime::fnv1a sweep;
    for (int i = 0; i < 220; ++i)
        sweep.u64(fnv1a_image(j2k::decode(encode_case(draw_case(rng)))));
    EXPECT_EQ(sweep.value(), 0x8813BA78D4106290ull);
}

TEST(KernelDifferential, ReducedResolutionSweepMatchesPinnedHash)
{
    // decode_reduced exercises the partial-synthesis path (stop_level) at
    // every discard level.
    std::mt19937 rng{0x9E3779B9u};
    runtime::fnv1a sweep;
    for (int i = 0; i < 24; ++i) {
        tile_case c = draw_case(rng);
        c.w = std::max(c.w, 16);  // keep a discardable level worth of extent
        c.h = std::max(c.h, 16);
        const auto cs = encode_case(c);
        const j2k::decoder dec{cs};
        for (int discard = 1; discard <= c.levels; ++discard)
            sweep.u64(fnv1a_image(dec.decode_reduced(discard)));
    }
    EXPECT_EQ(sweep.value(), 0x82F7B2FE8F3167FAull);
}

TEST(KernelDifferential, ProgressiveSessionSweepMatchesPinnedHashAtEveryLayer)
{
    // The resumable session path (persistent tier-1 state + per-advance
    // synthesis) is pinned at every refinement, not just the final image.
    std::mt19937 rng{0x51A57E11u};
    runtime::fnv1a sweep;
    for (int i = 0; i < 12; ++i) {
        tile_case c = draw_case(rng);
        c.layers = 3;
        const auto cs = encode_case(c);
        j2k::decode_session s{cs};
        for (int l = 1; l <= s.total_layers(); ++l)
            sweep.u64(fnv1a_image(s.advance_to(l)));
    }
    EXPECT_EQ(sweep.value(), 0x22DEF8DB4D07792Dull);
}

TEST(KernelDifferential, DequantEdgeValuesMatchTheBranchingFormula)
{
    // The oracle is the original branching formula; the kernel computes the
    // same value with selects so that it vectorises.
    auto oracle = [](std::int32_t q, double step) {
        if (q == 0) return 0.0;
        const double m = (std::abs(static_cast<double>(q)) + 0.5) * step;
        return q < 0 ? -m : m;
    };
    constexpr std::int32_t k_max = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t k_min = std::numeric_limits<std::int32_t>::min();
    const std::vector<std::int32_t> q{0, 1, -1, k_max, -k_max, k_min, 7, -7, 0};
    for (const double step : {1.0, 0.75, 1.0 / 32.0 * 256.0, 3.0e-3}) {
        std::vector<double> out;
        j2k::dequantize_buffer(q, out, step);
        ASSERT_EQ(out.size(), q.size());
        for (std::size_t i = 0; i < q.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                      std::bit_cast<std::uint64_t>(oracle(q[i], step)))
                << "q=" << q[i] << " step=" << step;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(j2k::dequantize_value(q[i], step)),
                      std::bit_cast<std::uint64_t>(oracle(q[i], step)))
                << "q=" << q[i] << " step=" << step;
        }
    }
}

TEST(KernelDifferential, IctSaturatesResultsOutsideTheInt32Range)
{
    constexpr std::int32_t k_max = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t k_min = std::numeric_limits<std::int32_t>::min();
    const std::int32_t edges[] = {0, k_min, k_max, 2'000'000'000, -2'000'000'000};
    // Every (Y, Cb, Cr) combination of the edge values, one sample each.
    j2k::image img{125, 1, 3, 8};
    int n = 0;
    for (const auto y : edges)
        for (const auto cb : edges)
            for (const auto cr : edges) {
                img.comp(0).samples()[static_cast<std::size_t>(n)] = y;
                img.comp(1).samples()[static_cast<std::size_t>(n)] = cb;
                img.comp(2).samples()[static_cast<std::size_t>(n)] = cr;
                ++n;
            }
    const j2k::image in = img;
    j2k::ict_inverse(img);

    // Round half away from zero, then clamp to ±(2^31-1).
    auto expect = [](double v) {
        const double r = v < 0.0 ? -std::floor(-v + 0.5) : std::floor(v + 0.5);
        return static_cast<std::int32_t>(std::clamp(r, -2147483647.0, 2147483647.0));
    };
    for (std::size_t i = 0; i < 125; ++i) {
        const double Y = in.comp(0).samples()[i];
        const double Cb = in.comp(1).samples()[i];
        const double Cr = in.comp(2).samples()[i];
        EXPECT_EQ(img.comp(0).samples()[i], expect(Y + 1.402 * Cr)) << i;
        EXPECT_EQ(img.comp(1).samples()[i], expect(Y - 0.344136 * Cb - 0.714136 * Cr))
            << i;
        EXPECT_EQ(img.comp(2).samples()[i], expect(Y + 1.772 * Cb)) << i;
    }
    // Y=0, Cb=0, Cr=2e9: R = 2.804e9 saturates rather than overflowing.
    EXPECT_EQ(img.comp(0).samples()[3], k_max);
    EXPECT_EQ(img.comp(1).samples()[3], -1'428'272'000);
    EXPECT_EQ(img.comp(2).samples()[3], 0);
}

/// std::lround, saturated to ±(2^31-1) where the rounded value leaves that
/// range (lround itself is only defined while the result fits a long).
std::int32_t lround_saturated(double v)
{
    constexpr double k_lim = 2147483647.0;
    if (std::fabs(v) >= 0x1p62) return v < 0.0 ? -2147483647 : 2147483647;
    return static_cast<std::int32_t>(
        std::clamp<long>(std::lround(v), -static_cast<long>(k_lim), static_cast<long>(k_lim)));
}

TEST(KernelDifferential, RoundRowMatchesLroundAtEdgeValues)
{
    // 0.49999999999999994 is the largest double below 0.5: |v| + 0.5 rounds
    // up to 1.0 there, so a round built on it returns 1 where lround gives 0.
    const std::vector<double> v{0.49999999999999994, -0.49999999999999994,
                                0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0,
                                2147483647.0 - 0.5, 0x1p31, -0x1p31,
                                1e300, -1e300, 0x1p52 + 1.0, 2147483646.5,
                                -2147483646.5, -2147483647.5, 3.0, -7.0};
    std::vector<std::int32_t> out(v.size(), 12345);
    j2k::round_row(v.data(), out.data(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(out[i], lround_saturated(v[i])) << "v=" << v[i];
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[2], 1);
    EXPECT_EQ(out[3], -1);
    EXPECT_EQ(out[9], 2147483647);   // 2^31 - 0.5 rounds to 2^31: saturated
    EXPECT_EQ(out[11], -2147483647);
    EXPECT_EQ(out[14], 2147483647);  // 2^52 + 1
    const double nan = std::numeric_limits<double>::quiet_NaN();
    j2k::round_row(&nan, out.data(), 1);
    EXPECT_EQ(out[0], 0);
}

TEST(KernelDifferential, RoundRowMatchesLroundNextToEveryKindOfTie)
{
    // Each tie k + 0.5 and its two neighbouring doubles, for small k, for k
    // either side of every power of two up to the int32 limit (where
    // |v| + 0.5 enters the next binade) and for random k.
    std::vector<double> v;
    const auto around = [&v](double k) {
        for (const double t : {k + 0.5, -(k + 0.5)}) {
            v.push_back(t);
            v.push_back(std::nextafter(t, 0.0));
            v.push_back(std::nextafter(t, 2.0 * t));
        }
    };
    for (int k = 0; k < 64; ++k) around(k);
    for (int e = 1; e <= 31; ++e) {
        around(std::ldexp(1.0, e) - 1.0);
        around(std::ldexp(1.0, e));
    }
    std::mt19937 rng{99};
    for (int i = 0; i < 2000; ++i) around(static_cast<double>(rng() >> 1));
    std::vector<std::int32_t> out(v.size());
    j2k::round_row(v.data(), out.data(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        ASSERT_EQ(out[i], lround_saturated(v[i])) << std::hexfloat << "v=" << v[i];
}

TEST(KernelDifferential, IctRoundsAsRoundRow)
{
    // One exact rounding for the lossy path: the ICT's results are rounded
    // as round_row rounds IDWT output.  Random and extreme inputs; the
    // products are forced through memory so no multiply fuses into its add.
    std::mt19937 rng{2024};
    constexpr std::size_t k_n = 4096;
    j2k::image img{static_cast<int>(k_n), 1, 3, 8};
    for (int c = 0; c < 3; ++c)
        for (auto& s : img.comp(c).samples())
            s = rng() % 4 == 0 ? static_cast<std::int32_t>(rng())
                               : static_cast<std::int32_t>(rng() % 2001) - 1000;
    const j2k::image in = img;
    j2k::ict_inverse(img);
    std::vector<double> rgb(3 * k_n);
    for (std::size_t i = 0; i < k_n; ++i) {
        const double Y = in.comp(0).samples()[i];
        const double Cb = in.comp(1).samples()[i];
        const double Cr = in.comp(2).samples()[i];
        volatile double r = 1.402 * Cr, gb = 0.344136 * Cb, gr = 0.714136 * Cr,
                        b = 1.772 * Cb;
        const double G0 = Y - gb;
        rgb[i] = Y + r;
        rgb[k_n + i] = G0 - gr;
        rgb[2 * k_n + i] = Y + b;
    }
    std::vector<std::int32_t> want(3 * k_n);
    j2k::round_row(rgb.data(), want.data(), rgb.size());
    for (std::size_t i = 0; i < k_n; ++i)
        for (int c = 0; c < 3; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            ASSERT_EQ(img.comp(c).samples()[i], want[ci * k_n + i]) << "c=" << c << " i=" << i;
            ASSERT_EQ(want[ci * k_n + i], lround_saturated(rgb[ci * k_n + i]));
        }
}

TEST(KernelDispatch, ScalarIsTheOnlyKernelSet)
{
    EXPECT_EQ(j2k::active_kernel_isa(), j2k::kernel_isa::scalar);
    EXPECT_STREQ(j2k::kernel_isa_name(j2k::active_kernel_isa()), "scalar");
}

}  // namespace
