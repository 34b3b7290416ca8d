// The golden corpus recipes: source image and codec parameters of every
// committed stream under tests/j2k/corpus/.  corpus_gen (make_corpus.cpp)
// encodes them to write the corpus; test_golden.cpp re-encodes the 5/3 ones
// and compares byte for byte, which pins the encoder as well as the decoder.
#pragma once

#include <j2k/j2k.hpp>

#include <vector>

namespace corpus {

struct recipe {
    const char* file;
    j2k::image source;  ///< make_test_image output (deterministic by seed)
    j2k::codec_params params;
};

inline std::vector<recipe> recipes()
{
    auto make = [](const char* file, j2k::image src, int tile, j2k::wavelet mode,
                   int layers) {
        j2k::codec_params p;
        p.tile_width = p.tile_height = tile;
        p.mode = mode;
        p.quality_layers = layers;
        return recipe{file, std::move(src), p};
    };
    using j2k::make_test_image;
    using j2k::wavelet;
    std::vector<recipe> r;
    // lossless 5/3, greyscale, 2×2 tile grid
    r.push_back(
        make("gray_53.ojk", make_test_image(64, 64, 1, 8, 7), 32, wavelet::w5_3, 1));
    // lossy 9/7, RGB, single tile
    r.push_back(
        make("rgb_97.ojk", make_test_image(64, 64, 3, 8, 11), 64, wavelet::w9_7, 1));
    // layered 5/3, RGB, 3 quality layers over 4 tiles
    r.push_back(
        make("layered_53.ojk", make_test_image(64, 64, 3, 8, 13), 32, wavelet::w5_3, 3));
    // odd geometry: prime-ish extents over 32-px tiles → a 3×2 grid whose
    // right/bottom tiles are partial (33×32, 65×1-high edge cases inside)
    r.push_back(
        make("odd_65x33.ojk", make_test_image(65, 33, 1, 8, 21), 32, wavelet::w5_3, 3));
    // 16-bit depth: twice the bit planes through tier-1 and the DC shift
    r.push_back(
        make("gray16_53.ojk", make_test_image(48, 48, 1, 16, 33), 32, wavelet::w5_3, 1));
    return r;
}

}  // namespace corpus
