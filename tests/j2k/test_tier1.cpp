// EBCOT tier-1: exact round trips over block shapes, orientations, and
// coefficient distributions; pass accounting; compression sanity.
#include <j2k/tier1.hpp>

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

namespace {

using j2k::band;
using j2k::codeblock;

std::vector<std::int32_t> random_coeffs(int w, int h, std::uint32_t seed,
                                        int max_mag, double density)
{
    std::mt19937 rng{seed};
    std::uniform_real_distribution<double> u{0.0, 1.0};
    std::vector<std::int32_t> v(static_cast<std::size_t>(w) * h, 0);
    for (auto& x : v) {
        if (u(rng) < density) {
            x = static_cast<std::int32_t>(rng() % static_cast<std::uint32_t>(max_mag)) + 1;
            if (rng() % 2) x = -x;
        }
    }
    return v;
}

void expect_roundtrip(const std::vector<std::int32_t>& coeffs, int w, int h, band b)
{
    const codeblock cb = j2k::tier1_encode(coeffs.data(), w, h, b);
    std::vector<std::int32_t> out(coeffs.size(), -12345);
    j2k::tier1_decode(cb, out.data(), b);
    ASSERT_EQ(out, coeffs);
}

TEST(Tier1, AllZeroBlockProducesNoData)
{
    std::vector<std::int32_t> z(32 * 32, 0);
    const codeblock cb = j2k::tier1_encode(z.data(), 32, 32, band::ll);
    EXPECT_EQ(cb.num_planes, 0);
    EXPECT_TRUE(cb.data.empty());
    EXPECT_EQ(cb.pass_count(), 0);
    std::vector<std::int32_t> out(z.size(), 7);
    j2k::tier1_decode(cb, out.data(), band::ll);
    EXPECT_EQ(out, z);
}

TEST(Tier1, SingleCoefficientRoundTrips)
{
    for (int val : {1, -1, 5, -127, 1024, -32768}) {
        std::vector<std::int32_t> v(32 * 32, 0);
        v[static_cast<std::size_t>(17) * 32 + 11] = val;
        expect_roundtrip(v, 32, 32, band::hl);
    }
}

TEST(Tier1, PassCountFormula)
{
    std::vector<std::int32_t> v(16 * 16, 0);
    v[0] = 5;  // 3 magnitude planes
    const codeblock cb = j2k::tier1_encode(v.data(), 16, 16, band::ll);
    EXPECT_EQ(cb.num_planes, 3);
    EXPECT_EQ(cb.pass_count(), 7);
}

struct T1Case {
    int w;
    int h;
    band b;
    int max_mag;
    double density;
};

class Tier1RoundTrip : public testing::TestWithParam<T1Case> {};

TEST_P(Tier1RoundTrip, Exact)
{
    const auto& c = GetParam();
    const auto coeffs = random_coeffs(c.w, c.h, static_cast<std::uint32_t>(c.w * 131 + c.h + c.max_mag), c.max_mag, c.density);
    expect_roundtrip(coeffs, c.w, c.h, c.b);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Tier1RoundTrip,
    testing::Values(T1Case{32, 32, band::ll, 255, 0.5}, T1Case{32, 32, band::hl, 255, 0.5},
                    T1Case{32, 32, band::lh, 255, 0.5}, T1Case{32, 32, band::hh, 255, 0.5},
                    T1Case{64, 64, band::ll, 1000, 0.3}, T1Case{1, 1, band::hh, 9, 1.0},
                    T1Case{5, 3, band::lh, 100, 0.8}, T1Case{32, 7, band::hl, 31, 0.2},
                    T1Case{7, 32, band::lh, 31, 0.2}, T1Case{4, 4, band::ll, 65535, 1.0},
                    T1Case{33, 29, band::hh, 511, 0.05}, T1Case{32, 32, band::ll, 3, 0.9},
                    T1Case{16, 16, band::hl, 1, 0.01}, T1Case{63, 61, band::hh, 12345, 0.4}));

TEST(Tier1, SparseBlocksCompressWell)
{
    // 1% density: run-length coding in the cleanup pass must pay off.
    const auto coeffs = random_coeffs(64, 64, 99, 7, 0.01);
    const codeblock cb = j2k::tier1_encode(coeffs.data(), 64, 64, band::hh);
    EXPECT_LT(cb.data.size(), 64u * 64u / 8u);  // far below 1 bit/sample
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(cb, out.data(), band::hh);
    EXPECT_EQ(out, coeffs);
}

TEST(Tier1, DenseBlocksStillRoundTrip)
{
    const auto coeffs = random_coeffs(32, 32, 5, 100000, 1.0);
    expect_roundtrip(coeffs, 32, 32, band::ll);
}

TEST(Tier1, StatsAccumulate)
{
    const auto coeffs = random_coeffs(32, 32, 11, 255, 0.5);
    const codeblock cb = j2k::tier1_encode(coeffs.data(), 32, 32, band::ll);
    j2k::tier1_stats st;
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(cb, out.data(), band::ll, &st);
    EXPECT_GT(st.mq_decisions, 0u);
    EXPECT_EQ(st.passes, static_cast<std::uint64_t>(cb.pass_count()));
    EXPECT_GT(st.samples, 0u);
    // Decoding again accumulates rather than overwrites.
    const auto first = st.mq_decisions;
    j2k::tier1_decode(cb, out.data(), band::ll, &st);
    EXPECT_EQ(st.mq_decisions, 2 * first);
}

TEST(Tier1, OrientationAffectsBitstreamButNotValues)
{
    const auto coeffs = random_coeffs(32, 32, 21, 63, 0.3);
    const codeblock a = j2k::tier1_encode(coeffs.data(), 32, 32, band::hl);
    const codeblock b = j2k::tier1_encode(coeffs.data(), 32, 32, band::hh);
    // Different context tables generally give different bytes...
    EXPECT_NE(a.data, b.data);
    // ...but each decodes exactly with its own orientation.
    std::vector<std::int32_t> out(coeffs.size());
    j2k::tier1_decode(a, out.data(), band::hl);
    EXPECT_EQ(out, coeffs);
    j2k::tier1_decode(b, out.data(), band::hh);
    EXPECT_EQ(out, coeffs);
}

TEST(Tier1, RejectsEmptyBlock)
{
    std::vector<std::int32_t> v(4, 0);
    EXPECT_THROW((void)j2k::tier1_encode(v.data(), 0, 2, band::ll), std::invalid_argument);
    codeblock cb;
    EXPECT_THROW(j2k::tier1_decode(cb, v.data(), band::ll), std::invalid_argument);
}

TEST(Tier1, NegativeAndPositiveSignsPreserved)
{
    std::vector<std::int32_t> v(8 * 8, 0);
    for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = (i % 2 ? -1 : 1) * (i + 1);
    expect_roundtrip(v, 8, 8, band::ll);
}

// ---------------------------------------------------------------------------
// Exact work counts.  The paper's timing model charges time per MQ decision
// (decoder/timing.hpp), so any drift in tier1_stats moves Table 1 and the
// model column of Figure 1.  These constants were recorded from the engine
// and must not change when tier-1 is rewritten or optimised.  Coefficients
// come from raw mt19937 draws only, which are identical on every platform.

std::vector<std::int32_t> pinned_coeffs(int w, int h, std::uint32_t seed, int max_mag,
                                        int density_pct)
{
    std::mt19937 rng{seed};
    std::vector<std::int32_t> v(static_cast<std::size_t>(w) * h, 0);
    for (auto& x : v) {
        if (static_cast<int>(rng() % 100) >= density_pct) continue;
        x = static_cast<std::int32_t>(1 + rng() % static_cast<std::uint32_t>(max_mag));
        if (rng() & 1u) x = -x;
    }
    return v;
}

struct counts {
    std::uint64_t mq_decisions;
    std::uint64_t passes;
    std::uint64_t samples;
};

void expect_counts(const j2k::tier1_stats& st, const counts& want, const char* what)
{
    EXPECT_EQ(st.mq_decisions, want.mq_decisions) << what;
    EXPECT_EQ(st.passes, want.passes) << what;
    EXPECT_EQ(st.samples, want.samples) << what;
}

/// Full decode of one block: must round-trip, and accumulates into `st`.
void decode_exact(int w, int h, band b, std::uint32_t seed, int max_mag, int density,
                  j2k::tier1_stats& st)
{
    const auto c = pinned_coeffs(w, h, seed, max_mag, density);
    const codeblock cb = j2k::tier1_encode(c.data(), w, h, b);
    std::vector<std::int32_t> out(c.size());
    j2k::tier1_decode(cb, out.data(), b, &st);
    ASSERT_EQ(out, c) << w << "x" << h << " seed " << seed;
}

TEST(Tier1PinnedCounts, AllFourOrientations)
{
    j2k::tier1_stats st;
    for (int o = 0; o < 4; ++o) {
        const auto b = static_cast<band>(o);
        decode_exact(32, 32, b, 100 + o, 255, 40, st);     // mixed
        decode_exact(32, 32, b, 200 + o, 7, 5, st);        // sparse: run-length mode
        decode_exact(16, 16, b, 300 + o, 65535, 100, st);  // dense, 16 planes
    }
    expect_counts(st, {58871, 300, 55394}, "orientations");
}

TEST(Tier1PinnedCounts, PartialStripesAndWidthOne)
{
    j2k::tier1_stats stripes;
    for (int h = 1; h <= 7; ++h)
        decode_exact(13, h, static_cast<band>(h % 4), 400 + h, 127, 50, stripes);
    expect_counts(stripes, {2706, 133, 2506}, "heights 1-7");

    j2k::tier1_stats narrow;
    for (int h : {1, 4, 9, 32})
        decode_exact(1, h, static_cast<band>(h % 4), 500 + h, 1000, 60, narrow);
    expect_counts(narrow, {488, 112, 443}, "width 1");
}

TEST(Tier1PinnedCounts, TruncatedDecodeStopsAtMaxPasses)
{
    const auto c = pinned_coeffs(32, 32, 600, 4095, 70);
    const codeblock cb = j2k::tier1_encode(c.data(), 32, 32, band::lh);
    j2k::tier1_stats st;
    std::vector<std::int32_t> out(c.size());
    for (int max_passes : {1, 2, 3, 4, 7, 20})
        j2k::tier1_decode(cb, out.data(), band::lh, &st, max_passes);
    expect_counts(st, {20681, 37, 17196}, "max_passes 1,2,3,4,7,20");
}

TEST(Tier1PinnedCounts, LayeredBlockFedSegmentBySegment)
{
    const auto c = pinned_coeffs(33, 29, 700, 511, 45);
    const auto lc =
        j2k::tier1_encode_layered(c.data(), 33, 29, band::hh, {1, 3, 0, 5, 2});
    j2k::tier1_block_decoder dec{lc.width, lc.height, lc.num_planes, band::hh};
    j2k::tier1_stats st;
    for (const auto& seg : lc.segments) dec.advance(seg.passes, seg.data, &st);
    std::vector<std::int32_t> out(c.size());
    dec.read(out.data());
    EXPECT_EQ(out, c);
    expect_counts(st, {9027, 25, 8532}, "layered");
}

// ---------------------------------------------------------------------------
// Memory footprint: resident_bytes() is exactly what the decoder allocates
// (the session sums it for the cache's byte budget).  The replacement
// operator new/delete below count bytes only while `g_counting` is set on the
// calling thread, so the rest of the binary is unaffected.

thread_local bool g_counting = false;
thread_local std::size_t g_allocated = 0;
thread_local std::size_t g_freed = 0;

/// Counts this thread's heap traffic for its lifetime.
struct heap_counter {
    heap_counter() { g_allocated = g_freed = 0, g_counting = true; }
    ~heap_counter() { g_counting = false; }
    heap_counter(const heap_counter&) = delete;
    heap_counter& operator=(const heap_counter&) = delete;
    [[nodiscard]] std::size_t live() const { return g_allocated - g_freed; }
};

TEST(Tier1BlockDecoder, ResidentBytesAreExactlyWhatItAllocates)
{
    for (const auto& [w, h] : {std::pair{1, 1}, {5, 3}, {32, 7}, {33, 33}}) {
        const auto c = pinned_coeffs(w, h, 800, 63, 50);
        const auto lc = j2k::tier1_encode_layered(c.data(), w, h, band::hl, {2, 2});
        heap_counter heap;
        {
            j2k::tier1_block_decoder dec{w, h, lc.num_planes, band::hl};
            EXPECT_EQ(heap.live(), dec.resident_bytes()) << w << "x" << h;
            for (const auto& seg : lc.segments) dec.advance(seg.passes, seg.data);
            // Decoding allocates nothing further.
            EXPECT_EQ(g_allocated, dec.resident_bytes()) << w << "x" << h;
            j2k::tier1_block_decoder moved{std::move(dec)};
            EXPECT_EQ(heap.live(), moved.resident_bytes()) << w << "x" << h;
        }
        EXPECT_EQ(heap.live(), 0u) << w << "x" << h;
    }
}

}  // namespace

// Out of line so GCC does not pair an inlined free() with a new-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n)
{
    if (g_counting) g_allocated += n;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t n) noexcept
{
    if (g_counting) g_freed += n;
    std::free(p);
}
