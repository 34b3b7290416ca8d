// DWT: perfect reconstruction, energy compaction, layout geometry.
#include <j2k/dwt.hpp>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

namespace {

using j2k::plane;

plane random_plane(int w, int h, std::uint32_t seed, int range = 255)
{
    plane p{w, h};
    std::mt19937 rng{seed};
    for (auto& v : p.samples()) v = static_cast<std::int32_t>(rng() % static_cast<std::uint32_t>(range + 1)) - range / 2;
    return p;
}

// ---- 5/3 ----

struct Geometry {
    int w;
    int h;
    int levels;
};

class Dwt53Reconstruction : public testing::TestWithParam<Geometry> {};

TEST_P(Dwt53Reconstruction, IsExactForRandomData)
{
    const auto [w, h, levels] = GetParam();
    const plane orig = random_plane(w, h, static_cast<std::uint32_t>(w * 1000 + h));
    plane p = orig;
    j2k::dwt53_forward(p, levels);
    j2k::dwt53_inverse(p, levels);
    EXPECT_EQ(p, orig) << w << "x" << h << " L" << levels;
}

INSTANTIATE_TEST_SUITE_P(Geometries, Dwt53Reconstruction,
                         testing::Values(Geometry{8, 8, 1}, Geometry{8, 8, 3},
                                         Geometry{64, 64, 5}, Geometry{17, 9, 2},
                                         Geometry{1, 16, 2}, Geometry{16, 1, 2},
                                         Geometry{2, 2, 1}, Geometry{3, 3, 1},
                                         Geometry{5, 7, 3}, Geometry{128, 96, 4},
                                         Geometry{33, 65, 6}, Geometry{1, 1, 3}));

// Degenerate extents: single-row/column tiles hit the 1-D kernels with
// n == 1 (pure passthrough) and n == 2 (every neighbour access mirrors).
INSTANTIATE_TEST_SUITE_P(DegenerateExtents, Dwt53Reconstruction,
                         testing::Values(Geometry{2, 1, 1}, Geometry{1, 2, 1},
                                         Geometry{2, 1, 3}, Geometry{1, 2, 3},
                                         Geometry{2, 16, 2}, Geometry{16, 2, 2},
                                         Geometry{2, 2, 4}));

TEST(Dwt53OneD, RoundTripsDegenerateExtents)
{
    std::mt19937 rng{7};
    for (int n = 1; n <= 8; ++n) {
        std::vector<std::int32_t> orig(static_cast<std::size_t>(n));
        for (auto& v : orig) v = static_cast<std::int32_t>(rng() % 256) - 128;
        std::vector<std::int32_t> x = orig;
        j2k::dwt53_analyze_1d(x.data(), n);
        j2k::dwt53_synthesize_1d(x.data(), n);
        EXPECT_EQ(x, orig) << "n=" << n;
    }
}

TEST(Dwt53OneD, TwoSampleConstantSignalHasZeroHighBand)
{
    // n == 2: the predict step mirrors both neighbours onto the low sample,
    // so a constant signal must produce a zero detail coefficient.
    std::vector<std::int32_t> x{42, 42};
    j2k::dwt53_analyze_1d(x.data(), 2);
    EXPECT_EQ(x[1], 0);
    j2k::dwt53_synthesize_1d(x.data(), 2);
    EXPECT_EQ(x, (std::vector<std::int32_t>{42, 42}));
}

TEST(Dwt53OneD, SingleSampleIsPassthrough)
{
    std::vector<std::int32_t> x{-37};
    j2k::dwt53_analyze_1d(x.data(), 1);
    EXPECT_EQ(x[0], -37);
    j2k::dwt53_synthesize_1d(x.data(), 1);
    EXPECT_EQ(x[0], -37);
}

TEST(Dwt53, ConstantSignalHasZeroHighBands)
{
    plane p{16, 16};
    for (auto& v : p.samples()) v = 100;
    j2k::dwt53_forward(p, 2);
    for (const auto& br : j2k::subband_layout(16, 16, 2)) {
        if (br.b == j2k::band::ll) continue;
        for (int y = 0; y < br.height; ++y)
            for (int x = 0; x < br.width; ++x)
                EXPECT_EQ(p.at(br.x0 + x, br.y0 + y), 0)
                    << j2k::band_name(br.b) << " L" << br.level;
    }
}

TEST(Dwt53, SmoothSignalCompactsEnergyIntoLL)
{
    plane p{64, 64};
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            p.at(x, y) = static_cast<std::int32_t>(
                100.0 * std::sin(x * 0.1) * std::cos(y * 0.08) + 2 * x + y);
    j2k::dwt53_forward(p, 3);
    // The 5/3 integer transform has unit DC gain, so compaction is judged in
    // the coefficient domain: the LL quadrant (1/64 of the coefficients) must
    // carry the bulk of the coefficient energy for a smooth signal.
    const double total = std::accumulate(
        p.samples().begin(), p.samples().end(), 0.0,
        [](double a, std::int32_t v) { return a + static_cast<double>(v) * v; });
    double ll = 0;
    const auto layout = j2k::subband_layout(64, 64, 3);
    const auto& llr = layout.front();
    ASSERT_EQ(llr.b, j2k::band::ll);
    for (int y = 0; y < llr.height; ++y)
        for (int x = 0; x < llr.width; ++x) {
            const double v = p.at(llr.x0 + x, llr.y0 + y);
            ll += v * v;
        }
    EXPECT_GT(ll, 0.8 * total);  // most coefficient energy in 1/64 of samples
}

// ---- 9/7 ----

class Dwt97Reconstruction : public testing::TestWithParam<Geometry> {};

TEST_P(Dwt97Reconstruction, ReconstructsWithinTolerance)
{
    const auto [w, h, levels] = GetParam();
    std::mt19937 rng{static_cast<std::uint32_t>(w * 31 + h)};
    std::vector<double> orig(static_cast<std::size_t>(w) * h);
    for (auto& v : orig) v = static_cast<double>(rng() % 256) - 128.0;
    std::vector<double> buf = orig;
    j2k::dwt97_forward(buf, w, h, levels);
    j2k::dwt97_inverse(buf, w, h, levels);
    for (std::size_t i = 0; i < orig.size(); ++i)
        ASSERT_NEAR(buf[i], orig[i], 1e-9) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(Geometries, Dwt97Reconstruction,
                         testing::Values(Geometry{8, 8, 1}, Geometry{64, 64, 5},
                                         Geometry{17, 9, 2}, Geometry{1, 16, 2},
                                         Geometry{5, 7, 3}, Geometry{128, 96, 4},
                                         Geometry{2, 2, 1}, Geometry{3, 3, 2}));

INSTANTIATE_TEST_SUITE_P(DegenerateExtents, Dwt97Reconstruction,
                         testing::Values(Geometry{2, 1, 1}, Geometry{1, 2, 1},
                                         Geometry{2, 1, 3}, Geometry{1, 2, 3},
                                         Geometry{2, 16, 2}, Geometry{16, 2, 2},
                                         Geometry{1, 1, 2}, Geometry{2, 2, 4}));

TEST(Dwt97OneD, RoundTripsDegenerateExtents)
{
    std::mt19937 rng{11};
    for (int n = 1; n <= 8; ++n) {
        std::vector<double> orig(static_cast<std::size_t>(n));
        for (auto& v : orig) v = static_cast<double>(rng() % 256) - 128.0;
        std::vector<double> x = orig;
        j2k::dwt97_analyze_1d(x.data(), n);
        j2k::dwt97_synthesize_1d(x.data(), n);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                        orig[static_cast<std::size_t>(i)], 1e-9)
                << "n=" << n << " i=" << i;
    }
}

TEST(Dwt97OneD, SingleSampleIsPassthroughWithoutScaling)
{
    // n == 1 short-circuits before the K scaling: the lone sample is pure LL
    // and must come through untouched in both directions.
    std::vector<double> x{13.5};
    j2k::dwt97_analyze_1d(x.data(), 1);
    EXPECT_DOUBLE_EQ(x[0], 13.5);
    j2k::dwt97_synthesize_1d(x.data(), 1);
    EXPECT_DOUBLE_EQ(x[0], 13.5);
}

TEST(Dwt97, ConstantSignalPreservedInLLWithUnitGain)
{
    std::vector<double> buf(32 * 32, 50.0);
    j2k::dwt97_forward(buf, 32, 32, 1);
    // LL occupies the 16×16 top-left quadrant; DC gain is 1 per dimension.
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) ASSERT_NEAR(buf[static_cast<std::size_t>(y) * 32 + x], 50.0, 1e-6);
    // High bands vanish.
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            if (x >= 16 || y >= 16)
                ASSERT_NEAR(buf[static_cast<std::size_t>(y) * 32 + x], 0.0, 1e-6);
}

// ---- 2-D inverse against the 1-D oracle ----
//
// The 2-D inverse lifts deinterleaved halves with the row kernels; the 1-D
// functions lift interleaved samples through the mirror() extension.  The
// reference below is the 2-D transform written with the 1-D functions only
// (per level: every column gathered, interleaved and synthesised, then every
// row), and the 2-D functions must match it bit for bit.

template <typename T, typename Synth>
void reference_inverse(std::vector<T>& buf, int w, int h, int levels, int discard,
                       Synth synth)
{
    std::vector<T> line;
    // Gather n samples first, first+step, ... in interleaved order (the low
    // half holds the even samples), synthesise, scatter back in order.
    const auto synth_line = [&](int n, std::size_t first, std::size_t step) {
        line.resize(static_cast<std::size_t>(n));
        const int nl = (n + 1) / 2;
        for (int i = 0; i < n; ++i)
            line[static_cast<std::size_t>(i)] =
                buf[first + step * static_cast<std::size_t>(i % 2 == 0 ? i / 2 : nl + i / 2)];
        synth(line.data(), n);
        for (int i = 0; i < n; ++i)
            buf[first + step * static_cast<std::size_t>(i)] = line[static_cast<std::size_t>(i)];
    };
    for (int l = levels - 1; l >= discard; --l) {
        const int lw = j2k::reduced_extent(w, l);
        const int lh = j2k::reduced_extent(h, l);
        for (int x = 0; x < lw; ++x)
            synth_line(lh, static_cast<std::size_t>(x), static_cast<std::size_t>(w));
        for (int y = 0; y < lh; ++y)
            synth_line(lw, static_cast<std::size_t>(y) * static_cast<std::size_t>(w), 1);
    }
}

template <typename T>
::testing::AssertionResult same_bits(const std::vector<T>& got, const std::vector<T>& want)
{
    if (got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "differs from the 1-D reference";
}

/// Every inverse entry point at every discard level of one shape.
void expect_inverse_matches_reference(int w, int h, int levels)
{
    std::mt19937 rng{static_cast<std::uint32_t>((w * 131 + h) * 8 + levels)};
    const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    std::vector<std::int32_t> icoef(n);
    for (auto& v : icoef) v = static_cast<std::int32_t>(rng() % (1u << 21)) - (1 << 20);
    std::uniform_real_distribution<double> dist{-1000.0, 1000.0};
    std::vector<double> dcoef(n);
    for (auto& v : dcoef) v = dist(rng);

    for (int discard = 0; discard <= levels; ++discard) {
        SCOPED_TRACE(testing::Message() << w << "x" << h << " L" << levels << " discard "
                                        << discard);
        std::vector<std::int32_t> iref = icoef;
        reference_inverse(iref, w, h, levels, discard, j2k::dwt53_synthesize_1d);
        plane p{w, h};
        p.samples() = icoef;
        j2k::dwt53_inverse_partial(p, levels, discard);
        EXPECT_TRUE(same_bits(p.samples(), iref));

        std::vector<double> dref = dcoef;
        reference_inverse(dref, w, h, levels, discard, j2k::dwt97_synthesize_1d);
        std::vector<double> buf = dcoef;
        j2k::dwt97_inverse_partial(buf, w, h, levels, discard);
        EXPECT_TRUE(same_bits(buf, dref));

        if (discard == 0) {
            p.samples() = icoef;
            j2k::dwt53_inverse(p, levels);
            EXPECT_TRUE(same_bits(p.samples(), iref));
            buf = dcoef;
            j2k::dwt97_inverse(buf, w, h, levels);
            EXPECT_TRUE(same_bits(buf, dref));
        }
    }
}

TEST(Dwt2dOracle, InverseMatchesOneDimensionalReferenceOnSmallShapes)
{
    for (int w = 1; w <= 40; ++w)
        for (int h = 1; h <= 40; ++h)
            for (int levels = 0; levels <= 6; ++levels) {
                expect_inverse_matches_reference(w, h, levels);
                if (HasFailure()) return;  // one shape's report is enough
            }
}

TEST(Dwt2dOracle, InverseMatchesOneDimensionalReferenceOnOddLargeShapes)
{
    for (int levels = 0; levels <= 6; ++levels) {
        expect_inverse_matches_reference(97, 131, levels);
        expect_inverse_matches_reference(1, 257, levels);
    }
}

// ---- layout ----

TEST(SubbandLayout, CoversPlaneExactlyOnce)
{
    for (auto [w, h, levels] : {Geometry{64, 64, 3}, Geometry{17, 9, 2}, Geometry{33, 65, 4}}) {
        std::vector<int> hits(static_cast<std::size_t>(w) * h, 0);
        for (const auto& br : j2k::subband_layout(w, h, levels))
            for (int y = 0; y < br.height; ++y)
                for (int x = 0; x < br.width; ++x)
                    ++hits[static_cast<std::size_t>(br.y0 + y) * w + (br.x0 + x)];
        for (int v : hits) ASSERT_EQ(v, 1);
    }
}

TEST(SubbandLayout, CountsAndOrder)
{
    const auto l = j2k::subband_layout(64, 64, 3);
    ASSERT_EQ(l.size(), 10u);  // 3L+1
    EXPECT_EQ(l[0].b, j2k::band::ll);
    EXPECT_EQ(l[0].level, 3);
    EXPECT_EQ(l[0].width, 8);
    // Deepest level first after LL.
    EXPECT_EQ(l[1].level, 3);
    EXPECT_EQ(l.back().level, 1);
    EXPECT_EQ(l.back().b, j2k::band::hh);
    EXPECT_EQ(l.back().width, 32);
}

TEST(SubbandLayout, ZeroLevelsIsSingleLL)
{
    const auto l = j2k::subband_layout(10, 10, 0);
    ASSERT_EQ(l.size(), 1u);
    EXPECT_EQ(l[0].width, 10);
    EXPECT_EQ(l[0].height, 10);
}

TEST(SubbandLayout, RejectsBadGeometry)
{
    EXPECT_THROW(j2k::subband_layout(0, 4, 1), std::invalid_argument);
    EXPECT_THROW(j2k::subband_layout(4, 4, -1), std::invalid_argument);
}

TEST(BandGain, HigherBandsHaveHigherGain)
{
    using j2k::band;
    using j2k::wavelet;
    EXPECT_GT(j2k::band_gain(band::hh, 1, wavelet::w9_7),
              j2k::band_gain(band::hl, 1, wavelet::w9_7));
    EXPECT_GT(j2k::band_gain(band::hl, 1, wavelet::w9_7),
              j2k::band_gain(band::ll, 1, wavelet::w9_7));
    EXPECT_EQ(j2k::band_gain(band::hh, 1, wavelet::w5_3), 1.0);
}

}  // namespace
