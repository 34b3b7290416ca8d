// Golden regression corpus: committed codestreams (lossless 5/3, lossy 9/7,
// layered, odd-geometry, 16-bit) whose decoded pixels must hash to known
// values.  This
// pins the *decoder output*, not just self-consistency — an encode/decode
// round-trip test cannot see a bug that changes both sides symmetrically.
//
// Regenerate corpus files and hashes with the `corpus_gen` tool when the
// format changes intentionally (see corpus/README.md).
#include "corpus_recipes.hpp"

#include <j2k/j2k.hpp>
#include <runtime/hash.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace {

using runtime::fnv1a_image;

std::vector<std::uint8_t> load(const std::string& name)
{
    const std::string path = std::string{J2K_CORPUS_DIR} + "/" + name;
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"missing corpus file: " + path};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

struct golden {
    const char* file;
    std::uint64_t hash;
};

// Hashes printed by corpus_gen at generation time.
constexpr golden k_golden[] = {
    {"gray_53.ojk", 0xEE1435E1050DF733ull},
    {"rgb_97.ojk", 0x2ABEA0B3B87A8999ull},
    {"layered_53.ojk", 0xAA4C7851D4825229ull},
    {"odd_65x33.ojk", 0x80E88702BCF63C11ull},
    {"gray16_53.ojk", 0x58700F9E92184262ull},
};

TEST(GoldenCorpus, DecodedPixelsMatchCommittedHashes)
{
    for (const auto& g : k_golden) {
        const auto cs = load(g.file);
        const j2k::image img = j2k::decode(cs);
        EXPECT_EQ(fnv1a_image(img), g.hash) << g.file;
    }
}

TEST(GoldenCorpus, LosslessStreamAlsoMatchesItsSourceImageExactly)
{
    // The 5/3 streams are reversible: beyond the hash, the decode must equal
    // the generator's source image sample for sample.
    const j2k::image src = j2k::make_test_image(64, 64, 1, 8, 7);
    EXPECT_EQ(j2k::decode(load("gray_53.ojk")), src);
    const j2k::image src3 = j2k::make_test_image(64, 64, 3, 8, 13);
    EXPECT_EQ(j2k::decode(load("layered_53.ojk")), src3);
    const j2k::image odd = j2k::make_test_image(65, 33, 1, 8, 21);
    EXPECT_EQ(j2k::decode(load("odd_65x33.ojk")), odd);
    const j2k::image deep = j2k::make_test_image(48, 48, 1, 16, 33);
    EXPECT_EQ(j2k::decode(load("gray16_53.ojk")), deep);
}

TEST(GoldenCorpus, EncoderReproducesCommittedBytes)
{
    // Tier-1 encoding shares its engine with decoding and generates every
    // test vector, so its output is pinned too: re-encoding the 5/3 sources
    // must give the committed streams byte for byte.  (The 9/7 stream rests
    // on floating point and is pinned by its decoded hash only.)
    int checked = 0;
    for (const corpus::recipe& r : corpus::recipes()) {
        if (r.params.mode != j2k::wavelet::w5_3) continue;
        EXPECT_EQ(j2k::encode(r.source, r.params), load(r.file)) << r.file;
        ++checked;
    }
    EXPECT_EQ(checked, 4);
}

TEST(GoldenCorpus, LayeredStreamDegradesGracefullyByLayer)
{
    const auto cs = load("layered_53.ojk");
    j2k::decoder full{cs};
    const j2k::image best = full.decode_all();
    j2k::decoder capped{cs};
    capped.set_max_quality_layers(1);
    const j2k::image worst = capped.decode_all();
    // Fewer layers, lower fidelity — but identical geometry.
    EXPECT_EQ(worst.width(), best.width());
    EXPECT_EQ(worst.height(), best.height());
    const j2k::image src = j2k::make_test_image(64, 64, 3, 8, 13);
    EXPECT_LE(j2k::psnr(src, worst), j2k::psnr(src, best));
}

}  // namespace
