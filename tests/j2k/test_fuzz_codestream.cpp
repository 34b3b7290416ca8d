// Structure-aware codestream fuzzing: mutate valid streams (byte flips,
// truncations, splices, targeted header corruption, and rewrites of the
// per-block plane-count and pass-count fields with every length left intact)
// and require that decode either succeeds or throws codestream_error —
// never any other exception, crash, hang, or sanitizer report.  Deterministic: a fixed xorshift64 seed
// drives every mutation, so failures replay exactly.
//
// Iteration count scales with the FUZZ_ITERS environment variable (default
// 300 per corpus stream); CI's nightly schedule raises it.
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace {

/// xorshift64: tiny, deterministic, good enough to drive mutations.
class xorshift64 {
public:
    explicit xorshift64(std::uint64_t seed) : s_{seed ? seed : 0x9E3779B97F4A7C15ull}
    {
    }
    std::uint64_t next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    /// Uniform-ish value in [0, n).
    std::size_t below(std::size_t n) { return n ? next() % n : 0; }

private:
    std::uint64_t s_;
};

int fuzz_iters()
{
    if (const char* env = std::getenv("FUZZ_ITERS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    return 300;
}

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile,
                                      j2k::wavelet mode, int layers)
{
    const j2k::image img = j2k::make_test_image(w, h, comps);
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    p.mode = mode;
    p.quality_layers = layers;
    return j2k::encode(img, p);
}

/// Apply one randomly chosen mutation.  Mutations deliberately skew toward
/// the header and directory region (first ~64 bytes) where a flipped byte
/// changes the decode's control flow rather than just one coefficient.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& seed,
                                 xorshift64& rng)
{
    std::vector<std::uint8_t> cs = seed;
    switch (rng.below(6)) {
    case 0: {  // flip 1..8 random bytes anywhere
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t i = 0; i < flips && !cs.empty(); ++i)
            cs[rng.below(cs.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 1: {  // corrupt the header/directory region specifically
        const std::size_t region = std::min<std::size_t>(cs.size(), 64);
        const std::size_t flips = 1 + rng.below(4);
        for (std::size_t i = 0; i < flips && region; ++i)
            cs[rng.below(region)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 2:  // truncate to a random prefix (possibly empty)
        cs.resize(rng.below(cs.size() + 1));
        break;
    case 3: {  // splice: overwrite a run with bytes from elsewhere
        if (cs.size() > 8) {
            const std::size_t len = 1 + rng.below(cs.size() / 4);
            const std::size_t dst = rng.below(cs.size() - len);
            const std::size_t src = rng.below(cs.size() - len);
            for (std::size_t i = 0; i < len; ++i) cs[dst + i] = cs[src + i];
        }
        break;
    }
    case 4: {  // insert random garbage mid-stream
        const std::size_t at = rng.below(cs.size() + 1);
        const std::size_t len = 1 + rng.below(32);
        std::vector<std::uint8_t> junk(len);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        cs.insert(cs.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
                  junk.end());
        break;
    }
    default: {  // delete a random run
        if (cs.size() > 4) {
            const std::size_t len = 1 + rng.below(cs.size() / 2);
            const std::size_t at = rng.below(cs.size() - len);
            cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(at),
                     cs.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        break;
    }
    }
    return cs;
}

/// The property under test: decode of arbitrary bytes either produces an
/// image or throws codestream_error.  Anything else is a bug.
void expect_clean_decode(const std::vector<std::uint8_t>& cs, std::uint64_t iter)
{
    try {
        const j2k::image img = j2k::decode(cs);
        // Survived decode: the geometry the header promised must hold.
        EXPECT_GT(img.width(), 0) << "iter " << iter;
        EXPECT_GT(img.height(), 0) << "iter " << iter;
    } catch (const j2k::codestream_error&) {
        // Expected failure mode for malformed input.
    } catch (const std::exception& e) {
        FAIL() << "iter " << iter << ": decode threw "
               << typeid(e).name() << " (" << e.what()
               << ") instead of codestream_error";
    }
}

/// Where one code block's fields sit in a codestream: its plane-count byte,
/// the pass-count bytes of its layer segments (layered streams only) and the
/// byte ranges of its segments.
struct block_fields {
    std::size_t planes_at = 0;
    std::vector<std::size_t> passes_at;
    std::vector<std::pair<std::size_t, std::size_t>> segments;  ///< (offset, length)
};

/// Walk the tile payloads (or layer chunks) of a valid stream in the
/// canonical block order and record every block's fields.
std::vector<block_fields> find_blocks(const std::vector<std::uint8_t>& cs)
{
    const j2k::stream_info info = j2k::read_header(cs);
    const auto grid = j2k::tile_grid(info.width, info.height, info.tile_width,
                                     info.tile_height);
    const bool layered = info.quality_layers > 1;
    std::vector<block_fields> blocks;
    std::size_t first = 0;  // index of the current tile's first block
    for (std::size_t t = 0; t < grid.size(); ++t) {
        first = blocks.size();
        for (int l = 0; l < (layered ? info.quality_layers : 1); ++l) {
            j2k::byte_reader r{cs};
            r.seek(layered ? info.chunk_offsets[static_cast<std::size_t>(l) * grid.size() + t]
                           : info.tile_offsets[t]);
            std::size_t bi = first;
            for (int c = 0; c < info.components; ++c)
                for (const auto& br : j2k::subband_layout(grid[t].width, grid[t].height,
                                                          info.levels)) {
                    if (br.width == 0 || br.height == 0) continue;
                    j2k::detail::for_each_codeblock(br, [&](int, int, int, int) {
                        if (l == 0) {
                            blocks.emplace_back();
                            blocks.back().planes_at = r.pos();
                            (void)r.u8();
                        }
                        block_fields& b = blocks[bi++];
                        if (layered) {
                            b.passes_at.push_back(r.pos());
                            (void)r.u8();
                        }
                        const std::uint32_t len = r.u32();
                        b.segments.emplace_back(r.pos(), len);
                        (void)r.bytes(len);
                    });
                }
        }
    }
    return blocks;
}

/// Overwrite a block's segments with random bytes, keeping their lengths.
void randomise_segments(std::vector<std::uint8_t>& cs, const block_fields& b,
                        xorshift64& rng)
{
    for (const auto& [at, len] : b.segments)
        for (std::size_t i = 0; i < len; ++i) cs[at + i] = static_cast<std::uint8_t>(rng.next());
}

/// Decode through both synthesis paths (full, and one level discarded) and
/// require each to succeed or throw codestream_error.
void expect_clean_decode_both_paths(const std::vector<std::uint8_t>& cs, std::uint64_t iter)
{
    expect_clean_decode(cs, iter);
    try {
        const j2k::decoder dec{cs};
        if (dec.info().levels > 0) (void)dec.decode_reduced(1);
    } catch (const j2k::codestream_error&) {
    } catch (const std::exception& e) {
        FAIL() << "iter " << iter << ": decode_reduced threw " << typeid(e).name() << " ("
               << e.what() << ") instead of codestream_error";
    }
}

class CodestreamFuzz : public ::testing::TestWithParam<int> {};

TEST(CodestreamFuzz, MutatedStreamsNeverEscapeTheErrorContract)
{
    const std::vector<std::vector<std::uint8_t>> seeds = {
        make_stream(64, 64, 1, 32, j2k::wavelet::w5_3, 1),   // lossless, 4 tiles
        make_stream(64, 64, 3, 64, j2k::wavelet::w9_7, 1),   // lossy, 1 tile
        make_stream(64, 64, 3, 32, j2k::wavelet::w5_3, 3),   // layered directory
    };
    const int iters = fuzz_iters();
    std::uint64_t iter = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        // Seed folds in the corpus index so each stream gets its own sequence.
        xorshift64 rng{0xC0DEC0DEull * (s + 1)};
        // The pristine stream must of course decode.
        EXPECT_NO_THROW((void)j2k::decode(seeds[s])) << "corpus " << s;
        for (int i = 0; i < iters; ++i, ++iter)
            expect_clean_decode(mutate(seeds[s], rng), iter);
    }
}

TEST(CodestreamFuzz, HostileTier1SegmentsStayInsideTheBlock)
{
    // Tier-1 walks raw pointers over a padded state plane.  Whatever plane
    // count and segment bytes a stream claims, a block decoder either
    // rejects the plane count as codestream_error or decodes inside the
    // block (the sanitizer legs catch any escape).  Any byte string is a
    // valid MQ codeword, so the bytes themselves never fail a decode.
    const int iters = std::max(fuzz_iters() / 3, 100);
    xorshift64 rng{0x7E1E5EEDull};
    for (int i = 0; i < iters; ++i) {
        const int w = 1 + static_cast<int>(rng.below(64));
        const int h = 1 + static_cast<int>(rng.below(64));
        const int planes = static_cast<int>(rng.below(40)) - 4;
        const auto orient = static_cast<j2k::band>(i % 4);
        std::vector<std::uint8_t> bytes(rng.below(512));
        for (auto& b : bytes)  // 0xFF-heavy: markers and stuffing everywhere
            b = rng.below(4) ? static_cast<std::uint8_t>(rng.next()) : 0xFF;
        try {
            j2k::tier1_block_decoder dec{w, h, planes, orient};
            // Three layer segments cut at random points of the byte string.
            const std::size_t cut1 = rng.below(bytes.size() + 1);
            const std::size_t cut2 = cut1 + rng.below(bytes.size() - cut1 + 1);
            const std::span<const std::uint8_t> all{bytes};
            dec.advance(static_cast<int>(rng.below(8)), all.subspan(0, cut1));
            dec.advance(static_cast<int>(rng.below(40)), all.subspan(cut1, cut2 - cut1));
            dec.advance(100, all.subspan(cut2));
            std::vector<std::int32_t> out(static_cast<std::size_t>(w) * h);
            dec.read(out.data());
            for (const std::int32_t v : out)
                ASSERT_LT(std::abs(std::int64_t{v}), std::int64_t{1} << planes)
                    << "iter " << i;
        } catch (const j2k::codestream_error&) {
            EXPECT_TRUE(planes < 0 || planes > 31) << "iter " << i << ": " << planes;
        }
    }
}

TEST(CodestreamFuzz, HostilePlaneCountsDecodeWithoutOverflow)
{
    // A valid plane count of 29-31 over random segment bytes decodes to
    // coefficients near ±2^31; lifting, colour transform, rounding and DC
    // shift must stay defined on them (the UBSan leg fails on any overflow).
    for (const j2k::wavelet mode : {j2k::wavelet::w5_3, j2k::wavelet::w9_7}) {
        const auto seed = make_stream(64, 64, 3, 64, mode, 1);
        const auto blocks = find_blocks(seed);
        for (int planes = 29; planes <= 31; ++planes) {
            SCOPED_TRACE(testing::Message() << (mode == j2k::wavelet::w5_3 ? "5/3" : "9/7")
                                            << " planes " << planes);
            xorshift64 rng{0x0DDB1A5Eull + static_cast<std::uint64_t>(planes)};
            std::vector<std::uint8_t> cs = seed;
            // The first block of each component is its LL block.
            const std::size_t per_comp = blocks.size() / 3;
            for (std::size_t c = 0; c < 3; ++c) {
                const block_fields& b = blocks[c * per_comp];
                cs[b.planes_at] = static_cast<std::uint8_t>(planes);
                randomise_segments(cs, b, rng);
            }
            j2k::image img;
            ASSERT_NO_THROW(img = j2k::decode(cs));
            const std::int32_t maxv = (1 << img.bit_depth()) - 1;
            for (int c = 0; c < img.components(); ++c)
                for (const std::int32_t v : img.comp(c).samples()) {
                    ASSERT_GE(v, 0);
                    ASSERT_LE(v, maxv);
                }
            ASSERT_NO_THROW((void)j2k::decoder{cs}.decode_reduced(1));
        }
    }
}

TEST(CodestreamFuzz, RewrittenPlaneAndPassCountsNeverEscapeTheErrorContract)
{
    // Structure-aware: only the per-block count fields change (plane counts
    // to 0-40, straddling the valid 0-31; layer pass counts to any byte),
    // and half the touched blocks also get random segment bytes, so tier-1
    // decodes deep planes and downstream stages see extreme coefficients.
    const std::vector<std::vector<std::uint8_t>> seeds = {
        make_stream(48, 48, 1, 32, j2k::wavelet::w5_3, 1),  // lossless, 4 tiles
        make_stream(32, 32, 3, 32, j2k::wavelet::w9_7, 1),  // lossy, ICT
        make_stream(48, 48, 3, 32, j2k::wavelet::w5_3, 3),  // layered, RCT
        make_stream(32, 32, 1, 32, j2k::wavelet::w9_7, 4),  // layered lossy
    };
    std::vector<std::vector<block_fields>> fields;
    for (const auto& s : seeds) fields.push_back(find_blocks(s));
    const int iters = fuzz_iters();
    xorshift64 rng{0x9A55E5ull};
    for (int i = 0; i < iters; ++i) {
        const std::size_t s = static_cast<std::size_t>(i) % seeds.size();
        const auto& blocks = fields[s];
        std::vector<std::uint8_t> cs = seeds[s];
        const std::size_t touched = 1 + rng.below(4);
        for (std::size_t k = 0; k < touched; ++k) {
            const block_fields& b = blocks[rng.below(blocks.size())];
            cs[b.planes_at] = static_cast<std::uint8_t>(rng.below(41));
            for (const std::size_t at : b.passes_at)
                if (rng.below(2)) cs[at] = static_cast<std::uint8_t>(rng.next());
            if (rng.below(2)) randomise_segments(cs, b, rng);
        }
        expect_clean_decode_both_paths(cs, static_cast<std::uint64_t>(i));
    }
}

TEST(CodestreamFuzz, PureGarbageIsRejectedNotCrashed)
{
    xorshift64 rng{0xBADF00Dull};
    for (int i = 0; i < 64; ++i) {
        std::vector<std::uint8_t> junk(rng.below(512));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        expect_clean_decode(junk, static_cast<std::uint64_t>(i));
    }
}

TEST(CodestreamFuzz, HostileHeadersFailBeforeAllocatingFromThem)
{
    // Hand-built headers with absurd geometry: the resource limits must
    // reject them with codestream_error before decode sizes anything.
    struct bomb {
        const char* name;
        std::uint32_t w, h;
        std::uint8_t comps, depth;
        std::uint32_t tw, th;
        std::uint8_t layers;
    };
    const bomb bombs[] = {
        {"giant image", 0x7FFFFFFF, 0x7FFFFFFF, 1, 8, 64, 64, 1},
        {"sample bomb", 1 << 19, 1 << 19, 4, 8, 1 << 19, 1 << 19, 1},
        {"tile bomb", 1 << 19, 1 << 19, 1, 8, 1, 1, 1},
        {"depth bomb", 64, 64, 1, 255, 64, 64, 1},
        {"layer directory bomb", 1 << 16, 1 << 16, 1, 8, 64, 64, 255},
    };
    for (const auto& b : bombs) {
        j2k::byte_writer w;
        w.u32(j2k::k_magic);
        w.u8(j2k::k_version);
        w.u32(b.w);
        w.u32(b.h);
        w.u8(b.comps);
        w.u8(b.depth);
        w.u32(b.tw);
        w.u32(b.th);
        w.u8(0);  // 5/3
        w.u8(2);  // levels
        w.u8(b.layers);
        w.f64(0.01);
        w.u8(2);  // guard bits
        const auto cs = w.take();
        EXPECT_THROW((void)j2k::decode(cs), j2k::codestream_error) << b.name;
    }
}

}  // namespace
