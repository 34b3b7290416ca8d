// j2k/tier1.hpp — EBCOT tier-1 code-block coder (ISO/IEC 15444-1 Annex D).
//
// Quantised wavelet coefficients are coded code-block by code-block, bit
// plane by bit plane, MSB first, with three passes per plane:
//
//   1. significance propagation — samples with a significant neighbour,
//   2. magnitude refinement     — samples already significant,
//   3. cleanup                  — everything else, with run-length coding of
//                                 all-zero stripe columns.
//
// All decisions go through the adaptive MQ coder with the standard 19-context
// model (9 zero-coding, 5 sign-coding, 3 magnitude-refinement, run-length,
// uniform).  One MQ codeword spans the whole code block (default mode: no
// per-pass termination, no bypass).
//
// This stage is the "arithmetic decoder" of the paper's Figure 1 — the block
// that consumes ~88.8% (lossless) / 78.6% (lossy) of software decode time.
//
// Coder state (encoder and decoder run the same engine): one 32-bit word per
// sample on a (w+2)×(h+2) plane whose one-sample border stays zero, plus an
// unpadded u32 magnitude plane.  The word's bits:
//
//   0..7    neighbour significant: NW N NE W E SW S SE
//   8..11   neighbour negative:    N W E S  (set together with its sig bit)
//   12      significant            13  negative
//   14      visited by this plane's significance pass
//   15      became significant in this plane
//   16      refined at least once
//
// A sample that becomes significant ORs its bits into its 8 neighbours; no
// other code writes neighbour state.  Zero coding is then one lookup on bits
// 0..7 (per orientation), sign coding one lookup on bits 0..11, and a cleanup
// column qualifies for run-length mode when its 4 words have none of bits
// 0..7, 12 and 14 set.
#pragma once

#include "dwt.hpp"
#include "mq_coder.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace j2k {

/// Result of encoding one code block.
struct codeblock {
    int width = 0;
    int height = 0;
    int num_planes = 0;                ///< magnitude bit planes actually coded
    std::vector<std::uint8_t> data;    ///< one MQ codeword segment

    /// Coding passes in this block: 3p-2 for p planes (0 for an empty block).
    [[nodiscard]] int pass_count() const noexcept
    {
        return num_planes == 0 ? 0 : 3 * num_planes - 2;
    }
};

/// Statistics reported by the decoder (drives the paper's timing model).
struct tier1_stats {
    std::uint64_t mq_decisions = 0;  ///< binary decisions decoded
    std::uint64_t passes = 0;        ///< coding passes executed
    std::uint64_t samples = 0;       ///< samples visited across all passes
};

/// Nominal code-block size used throughout this codec.
inline constexpr int k_codeblock_size = 32;

/// Encode `w`×`h` signed quantised coefficients (row-major) of a subband with
/// orientation `orient`.
[[nodiscard]] codeblock tier1_encode(const std::int32_t* coeffs, int w, int h,
                                     band orient);

/// A code block coded as layered segments: the pass sequence is cut at layer
/// boundaries and the MQ codeword is terminated at each cut (contexts carry
/// over), so any prefix of whole segments decodes exactly.
struct layered_codeblock {
    struct segment {
        int passes = 0;                  ///< coding passes in this segment
        std::vector<std::uint8_t> data;  ///< terminated MQ codeword piece
    };
    int width = 0;
    int height = 0;
    int num_planes = 0;
    std::vector<segment> segments;       ///< one per quality layer

    [[nodiscard]] int total_passes() const noexcept
    {
        int n = 0;
        for (const auto& s : segments) n += s.passes;
        return n;
    }
};

/// Encode with quality layers: `passes_per_layer[l]` passes end up in
/// segment l (the last layer absorbs any remainder; leading layers may be
/// empty for blocks with few planes).
[[nodiscard]] layered_codeblock tier1_encode_layered(
    const std::int32_t* coeffs, int w, int h, band orient,
    const std::vector<int>& passes_per_layer);

/// Decode the first `layers` segments (0 = all); exact for full decodes,
/// progressively coarser for prefixes.
void tier1_decode_layered(const layered_codeblock& cb, std::int32_t* out,
                          band orient, int layers = 0,
                          tier1_stats* stats = nullptr);

/// Resumable layer-by-layer decoder for one code block.  The coder state
/// (accumulated magnitudes, signs, significance map, MQ contexts, position in
/// the pass sequence) persists across calls, which is legal because the MQ
/// codeword is terminated at every layer boundary: feeding segment l to a
/// decoder that has consumed segments 0..l-1 reproduces the batch decode
/// bit for bit, while costing only segment l's passes.  This is what turns an
/// L-layer progressive session from O(L²) tier-1 work into O(L).
class tier1_block_decoder {
public:
    /// `num_planes` is stream data: implausible values throw codestream_error
    /// (empty geometry stays std::invalid_argument, as for tier1_decode).
    tier1_block_decoder(int width, int height, int num_planes, band orient);
    ~tier1_block_decoder();

    tier1_block_decoder(tier1_block_decoder&&) noexcept;
    tier1_block_decoder& operator=(tier1_block_decoder&&) noexcept;
    tier1_block_decoder(const tier1_block_decoder&) = delete;
    tier1_block_decoder& operator=(const tier1_block_decoder&) = delete;

    /// Consume the next layer's segment: `passes` coding passes out of `data`
    /// (one terminated MQ codeword piece).  Passes beyond the block's pass
    /// sequence are ignored, matching tier1_decode_layered.
    void advance(int passes, std::span<const std::uint8_t> data,
                 tier1_stats* stats = nullptr);

    /// Copy the current reconstruction (exact after all segments, coarser
    /// after a prefix) into `out` (width*height samples, row-major).
    void read(std::int32_t* out) const;

    [[nodiscard]] int width() const noexcept;
    [[nodiscard]] int height() const noexcept;
    [[nodiscard]] int segments_consumed() const noexcept;

    /// Bytes this decoder allocates: the state object, the padded state-word
    /// plane and the magnitude plane.
    [[nodiscard]] std::size_t resident_bytes() const noexcept;

private:
    struct state;
    std::unique_ptr<state> st_;
};

/// Decode a code block back into signed coefficients; exact inverse of
/// tier1_encode.  `stats`, when non-null, is accumulated into.
///
/// `max_passes` > 0 truncates decoding after that many coding passes — the
/// SNR-scalability mechanism of EBCOT: fewer passes yield a coarser (but
/// valid) reconstruction from a prefix of the codeword.  0 decodes all.
void tier1_decode(const codeblock& cb, std::int32_t* out, band orient,
                  tier1_stats* stats = nullptr, int max_passes = 0);

}  // namespace j2k
