#include "tier1.hpp"

#include "codestream.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>

namespace j2k {

namespace {

// Context numbering (indices into the per-block context array).
constexpr int k_ctx_mr_base = 14;  // 14..16 magnitude refinement (0..8 ZC, 9..13 SC)
constexpr int k_ctx_rl = 17;       // run-length
constexpr int k_ctx_uni = 18;      // uniform
constexpr int k_num_ctx = 19;

/// Zero-coding context from neighbour significance counts, per Table D.1.
/// h/v = number of significant horizontal/vertical neighbours (0..2),
/// d = significant diagonals (0..4).
constexpr int zc_context(int h, int v, int d, band orient) noexcept
{
    if (orient == band::hl) std::swap(h, v);  // HL: transpose the LL/LH table
    if (orient == band::hh) {
        const int hv = h + v;
        if (d >= 3) return 8;
        if (d == 2) return hv >= 1 ? 7 : 6;
        if (d == 1) return hv >= 2 ? 5 : (hv == 1 ? 4 : 3);
        return hv >= 2 ? 2 : (hv == 1 ? 1 : 0);
    }
    // LL / LH (and transposed HL)
    if (h == 2) return 8;
    if (h == 1) {
        if (v >= 1) return 7;
        return d >= 1 ? 6 : 5;
    }
    if (v == 2) return 4;
    if (v == 1) return 3;
    return d >= 2 ? 2 : (d == 1 ? 1 : 0);
}

/// Sign-coding context + XOR bit, per Table D.3.  hc/vc ∈ {-1,0,1} are the
/// clamped neighbour sign contributions.
struct sc_info {
    int ctx;
    int xor_bit;
};
constexpr sc_info sc_context(int hc, int vc) noexcept
{
    if (hc == 1) {
        if (vc == 1) return {13, 0};
        if (vc == 0) return {12, 0};
        return {11, 0};
    }
    if (hc == 0) {
        if (vc == 1) return {10, 0};
        if (vc == 0) return {9, 0};
        return {10, 1};
    }
    if (vc == 1) return {11, 1};
    if (vc == 0) return {12, 1};
    return {13, 1};
}

// State-word bits (layout documented in tier1.hpp).
constexpr std::uint32_t k_nw = 1u << 0, k_n = 1u << 1, k_ne = 1u << 2, k_w = 1u << 3,
                        k_e = 1u << 4, k_sw = 1u << 5, k_s = 1u << 6, k_se = 1u << 7;
constexpr std::uint32_t k_nbr = 0xFF;
constexpr std::uint32_t k_neg_n = 1u << 8, k_neg_w = 1u << 9, k_neg_e = 1u << 10,
                        k_neg_s = 1u << 11;
constexpr std::uint32_t k_sig = 1u << 12, k_neg = 1u << 13, k_visit = 1u << 14,
                        k_became = 1u << 15, k_refined = 1u << 16;

/// Tables D.1 and D.3 flattened over the state word's low bits, generated
/// from zc_context / sc_context above so the standard's tables exist once.
struct context_luts {
    std::array<std::array<std::uint8_t, 256>, 4> zc{};  ///< [orient][word & 0xFF]
    std::array<std::uint8_t, 4096> sc{};  ///< [word & 0xFFF]: ctx | xor << 7
};

constexpr context_luts make_luts() noexcept
{
    context_luts t;
    for (int o = 0; o < 4; ++o) {
        for (std::uint32_t n = 0; n < 256; ++n) {
            const int h = !!(n & k_w) + !!(n & k_e);
            const int v = !!(n & k_n) + !!(n & k_s);
            const int d = !!(n & k_nw) + !!(n & k_ne) + !!(n & k_sw) + !!(n & k_se);
            const int ctx = zc_context(h, v, d, static_cast<band>(o));
            t.zc[o][n] = static_cast<std::uint8_t>(ctx);
        }
    }
    for (std::uint32_t w = 0; w < 4096; ++w) {
        const auto contrib = [w](std::uint32_t sig, std::uint32_t neg) {
            return (w & sig) ? ((w & neg) ? -1 : 1) : 0;
        };
        const int hc = std::clamp(contrib(k_w, k_neg_w) + contrib(k_e, k_neg_e), -1, 1);
        const int vc = std::clamp(contrib(k_n, k_neg_n) + contrib(k_s, k_neg_s), -1, 1);
        const sc_info s = sc_context(hc, vc);
        t.sc[w] = static_cast<std::uint8_t>(s.ctx | s.xor_bit << 7);
    }
    return t;
}

constexpr context_luts k_luts = make_luts();

[[nodiscard]] std::pmr::memory_resource* mr_of(std::pmr::memory_resource* mr) noexcept
{
    return mr ? mr : std::pmr::get_default_resource();
}

/// Per-block coder state shared by encoder and decoder: one state word per
/// sample on a plane with a one-sample zero border (so neighbour access
/// needs no bounds checks), magnitudes on an unpadded plane, and the MQ
/// contexts.  Both planes come from `mr` so a decode job can back them with
/// its arena.
struct block_state {
    int w;
    int h;
    std::ptrdiff_t stride;                 // w + 2
    const std::uint8_t* zc;                // Table D.1 row for the orientation
    std::pmr::vector<std::uint32_t> word;  // (w+2)×(h+2)
    std::pmr::vector<std::uint32_t> mag;   // encoder: |coeff|; decoder: accumulated
    std::array<mq_context, k_num_ctx> cx{};

    block_state(int width, int height, band orient, std::pmr::memory_resource* mr)
        : w{width}, h{height}, stride{width + 2},
          zc{k_luts.zc[static_cast<std::size_t>(orient)].data()},
          word(static_cast<std::size_t>(width + 2) * static_cast<std::size_t>(height + 2),
               0u, mr_of(mr)),
          mag(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), 0u,
              mr_of(mr))
    {
        cx[0].reset(4, 0);          // ZC context 0 starts at state 4
        cx[k_ctx_rl].reset(3, 0);   // run-length starts at state 3
        cx[k_ctx_uni].reset(46, 0); // uniform: non-adaptive state
    }

    [[nodiscard]] std::uint32_t* word_at(int x, int y) noexcept
    {
        return word.data() + (y + 1) * stride + x + 1;
    }

    /// Mark the sample at `p` significant and OR its significance (and, for
    /// the four direct neighbours, its sign) into its 8 neighbours — the only
    /// place neighbour state is written.
    void become_significant(std::uint32_t* p, bool negative) noexcept
    {
        const std::ptrdiff_t s = stride;
        const std::uint32_t neg = negative ? ~0u : 0u;
        p[-s - 1] |= k_se;
        p[-s] |= k_s | (k_neg_s & neg);
        p[-s + 1] |= k_sw;
        p[-1] |= k_e | (k_neg_e & neg);
        p[1] |= k_w | (k_neg_w & neg);
        p[s - 1] |= k_ne;
        p[s] |= k_n | (k_neg_n & neg);
        p[s + 1] |= k_nw;
        *p |= k_sig | k_became | (k_neg & neg);
    }
};

/// Direction-independent pass logic.  `IO` supplies one primitive:
/// `int bit(mq_context&, int actual)` — the encoder codes `actual` and echoes
/// it; the decoder ignores `actual` and returns the decoded decision.  Both
/// sides therefore execute identical control flow over identical state.
/// Each pass builds its own `IO` from the coder, so the decoder works on a
/// local copy of the MQ registers for the length of the pass.
template <typename IO>
class engine {
public:
    engine(block_state& st, typename IO::coder& c) : s_{st}, coder_{c} {}

    std::uint64_t samples_visited = 0;

    /// Coding pass `i` of the canonical sequence for `num_planes` planes: the
    /// MSB plane gets only a cleanup pass, every other plane SPP, MRP, CUP.
    void run_pass(int num_planes, int i)
    {
        const int plane = num_planes - 1 - (i + 2) / 3;
        switch ((i + 2) % 3) {
            case 0:
                begin_plane();
                significance_pass(plane);
                break;
            case 1: refinement_pass(plane); break;
            default: cleanup_pass(plane); break;  // the MSB plane starts clean
        }
    }

private:
    void begin_plane() noexcept
    {
        for (auto& w : s_.word) w &= ~(k_visit | k_became);
    }

    void significance_pass(int plane)
    {
        IO io{coder_};
        mq_context* const cx = s_.cx.data();
        const std::uint8_t* const zc = s_.zc;
        std::uint64_t visited = 0;
        for_each_sample(k_nbr, [&](std::uint32_t* p, std::uint32_t* m) {
            const std::uint32_t w = *p;
            if ((w & k_sig) || !(w & k_nbr)) return;
            ++visited;
            *p = w | k_visit;
            if (io.bit(cx[zc[w & k_nbr]], (*m >> plane) & 1)) code_sign(io, p, m, plane);
        });
        samples_visited += visited;
    }

    void refinement_pass(int plane)
    {
        IO io{coder_};
        mq_context* const cx = s_.cx.data();
        std::uint64_t visited = 0;
        for_each_sample(k_sig, [&](std::uint32_t* p, std::uint32_t* m) {
            const std::uint32_t w = *p;
            if ((w & (k_sig | k_became)) != k_sig) return;
            ++visited;
            const int ctx = (w & k_refined) ? k_ctx_mr_base + 2
                                            : k_ctx_mr_base + ((w & k_nbr) ? 1 : 0);
            const int bit = io.bit(cx[ctx], (*m >> plane) & 1);
            if constexpr (IO::is_decoder) *m |= static_cast<std::uint32_t>(bit) << plane;
            *p = w | k_refined;
        });
        samples_visited += visited;
    }

    void cleanup_pass(int plane)
    {
        IO io{coder_};
        mq_context* const cx = s_.cx.data();
        const std::uint8_t* const zc = s_.zc;
        const int w = s_.w;
        const int h = s_.h;
        const std::ptrdiff_t s = s_.stride;
        std::uint32_t* const word = s_.word_at(0, 0);
        std::uint32_t* const mag = s_.mag.data();
        std::uint64_t visited = 0;
        for (int sy = 0; sy < h; sy += 4) {
            const int rows = std::min(4, h - sy);
            for (int x = 0; x < w; ++x) {
                std::uint32_t* const p = word + sy * s + x;
                std::uint32_t* const m = mag + sy * w + x;
                int dy = 0;
                if (rows == 4 &&
                    !((p[0] | p[s] | p[2 * s] | p[3 * s]) & (k_sig | k_visit | k_nbr))) {
                    // Run-length mode: one decision covers the whole column.
                    ++visited;
                    int first = 4;  // encoder: row of the first 1 bit
                    if constexpr (!IO::is_decoder) first = first_one(m, w, plane);
                    if (io.bit(cx[k_ctx_rl], first < 4) == 0) continue;
                    // Position of the first 1 bit: two uniform decisions.
                    dy = io.bit(cx[k_ctx_uni], (first >> 1) & 1) << 1;
                    dy |= io.bit(cx[k_ctx_uni], first & 1);
                    code_sign(io, p + dy * s, m + dy * w, plane);
                    ++dy;
                }
                for (; dy < rows; ++dy) {
                    std::uint32_t* const q = p + dy * s;
                    if (*q & (k_sig | k_visit)) continue;
                    ++visited;
                    std::uint32_t* const mq = m + dy * w;
                    if (io.bit(cx[zc[*q & k_nbr]], (*mq >> plane) & 1))
                        code_sign(io, q, mq, plane);
                }
            }
        }
        samples_visited += visited;
    }

    void code_sign(IO& io, std::uint32_t* p, std::uint32_t* m, int plane)
    {
        const std::uint32_t sc = k_luts.sc[*p & 0xFFF];
        const int xor_bit = static_cast<int>(sc >> 7);
        const int coded = io.bit(s_.cx[sc & 0x7F], ((*p & k_neg) ? 1 : 0) ^ xor_bit);
        if constexpr (IO::is_decoder) *m |= 1u << plane;
        s_.become_significant(p, (coded ^ xor_bit) != 0);
    }

    /// First row offset (0..3) of the column at `m` whose bit at `plane` is 1,
    /// or 4 if none.  Encoder only: the decoder's magnitudes are not known.
    [[nodiscard]] static int first_one(const std::uint32_t* m, int w, int plane) noexcept
    {
        for (int dy = 0; dy < 4; ++dy)
            if ((m[dy * w] >> plane) & 1u) return dy;
        return 4;
    }

    /// Visit every sample in stripe order: 4-row stripes, column by column,
    /// skipping full columns whose words have no bit of `any` set.  Geometry
    /// is read into locals once: context updates are byte stores, which the
    /// compiler must otherwise assume may alias it.
    template <typename Fn>
    void for_each_sample(std::uint32_t any, Fn&& fn)
    {
        const int w = s_.w;
        const int h = s_.h;
        const std::ptrdiff_t s = s_.stride;
        std::uint32_t* const word = s_.word_at(0, 0);
        std::uint32_t* const mag = s_.mag.data();
        for (int sy = 0; sy < h; sy += 4) {
            const int rows = std::min(4, h - sy);
            for (int x = 0; x < w; ++x) {
                std::uint32_t* p = word + sy * s + x;
                std::uint32_t* m = mag + sy * w + x;
                if (rows == 4 && !((p[0] | p[s] | p[2 * s] | p[3 * s]) & any)) continue;
                for (int dy = 0; dy < rows; ++dy, p += s, m += w) fn(p, m);
            }
        }
    }

    block_state& s_;
    typename IO::coder& coder_;
};

struct encode_io {
    using coder = mq_encoder;
    static constexpr bool is_decoder = false;
    explicit encode_io(mq_encoder& e) noexcept : enc{&e} {}
    int bit(mq_context& cx, int actual)
    {
        enc->encode(cx, actual);
        return actual;
    }
    mq_encoder* enc;
};

/// Decodes on a copy of the decoder (registers for the pass) and writes it
/// back when the pass ends.
struct decode_io {
    using coder = mq_decoder;
    static constexpr bool is_decoder = true;
    explicit decode_io(mq_decoder& d) noexcept : home{&d}, dec{d} {}
    ~decode_io() { *home = dec; }
    decode_io(const decode_io&) = delete;
    decode_io& operator=(const decode_io&) = delete;
    int bit(mq_context& cx, int /*actual*/) noexcept { return dec.decode(cx); }
    mq_decoder* home;
    mq_decoder dec;
};

}  // namespace

codeblock tier1_encode(const std::int32_t* coeffs, int w, int h, band orient)
{
    if (w <= 0 || h <= 0) throw std::invalid_argument{"tier1_encode: empty block"};
    layered_codeblock l = tier1_encode_layered(coeffs, w, h, orient, {0});
    return codeblock{w, h, l.num_planes, std::move(l.segments.front().data)};
}

layered_codeblock tier1_encode_layered(const std::int32_t* coeffs, int w, int h,
                                       band orient,
                                       const std::vector<int>& passes_per_layer)
{
    if (w <= 0 || h <= 0)
        throw std::invalid_argument{"tier1_encode_layered: empty block"};
    if (passes_per_layer.empty())
        throw std::invalid_argument{"tier1_encode_layered: no layers"};
    block_state st{w, h, orient, nullptr};
    std::uint32_t maxmag = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const std::int32_t v = coeffs[y * w + x];
            const auto m = static_cast<std::uint32_t>(std::abs(v));
            st.mag[static_cast<std::size_t>(y * w + x)] = m;
            if (v < 0) *st.word_at(x, y) = k_neg;
            maxmag = std::max(maxmag, m);
        }
    }
    layered_codeblock out;
    out.width = w;
    out.height = h;
    out.segments.resize(passes_per_layer.size());
    if (maxmag == 0) return out;  // nothing to code
    int planes = 0;
    while (maxmag >> planes) ++planes;
    out.num_planes = planes;

    const int total = 3 * planes - 2;
    mq_encoder enc;
    engine<encode_io> eng{st, enc};
    int pass_i = 0;
    for (std::size_t layer = 0; layer < passes_per_layer.size(); ++layer) {
        // The last layer absorbs all remaining passes.
        const int want = layer + 1 == passes_per_layer.size()
                             ? total - pass_i
                             : std::max(0, passes_per_layer[layer]);
        int done = 0;
        for (; done < want && pass_i < total; ++done, ++pass_i)
            eng.run_pass(planes, pass_i);
        out.segments[layer].passes = done;
        // Terminate the codeword at the layer boundary; contexts persist.
        out.segments[layer].data = enc.flush();
        enc.init();
    }
    return out;
}

/// Persistent state of a resumable block decoder: the shared coder state plus
/// the cursor into the canonical pass sequence.  Allocated from the same
/// memory resource as its planes.
struct tier1_block_decoder::state {
    block_state bs;
    int num_planes;
    int pass_i = 0;
    int segments = 0;
};

void tier1_block_decoder::state_deleter::operator()(state* s) const noexcept
{
    std::pmr::polymorphic_allocator<state>{s->bs.word.get_allocator()}.delete_object(s);
}

tier1_block_decoder::tier1_block_decoder(int width, int height, int num_planes,
                                         band orient,
                                         std::pmr::memory_resource* mr)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument{"tier1_block_decoder: empty block"};
    // num_planes is stream data, not an API argument — malformed values are a
    // codestream error so hostile inputs stay inside the decode error contract.
    if (num_planes < 0 || num_planes > 31)
        throw codestream_error{"tier1_block_decoder: implausible plane count"};
    st_.reset(std::pmr::polymorphic_allocator<state>{mr_of(mr)}.new_object<state>(
        block_state{width, height, orient, mr}, num_planes));
}

tier1_block_decoder::~tier1_block_decoder() = default;
tier1_block_decoder::tier1_block_decoder(tier1_block_decoder&&) noexcept = default;
tier1_block_decoder& tier1_block_decoder::operator=(tier1_block_decoder&&) noexcept =
    default;

int tier1_block_decoder::width() const noexcept { return st_->bs.w; }
int tier1_block_decoder::height() const noexcept { return st_->bs.h; }
int tier1_block_decoder::segments_consumed() const noexcept { return st_->segments; }

std::size_t tier1_block_decoder::resident_bytes() const noexcept
{
    const block_state& bs = st_->bs;
    return sizeof(state) + (bs.word.size() + bs.mag.size()) * sizeof(std::uint32_t);
}

void tier1_block_decoder::advance(int passes, std::span<const std::uint8_t> data,
                                  tier1_stats* stats)
{
    ++st_->segments;
    const int total = st_->num_planes == 0 ? 0 : 3 * st_->num_planes - 2;
    const int run = std::min(std::max(passes, 0), total - st_->pass_i);
    if (run <= 0) return;
    mq_decoder dec{data};
    engine<decode_io> eng{st_->bs, dec};
    for (int k = 0; k < run; ++k) eng.run_pass(st_->num_planes, st_->pass_i++);
    if (stats) {
        stats->mq_decisions += dec.decisions();
        stats->passes += static_cast<std::uint64_t>(run);
        stats->samples += eng.samples_visited;
    }
}

void tier1_block_decoder::read(std::int32_t* out) const
{
    block_state& bs = st_->bs;
    const std::uint32_t* m = bs.mag.data();
    for (int y = 0; y < bs.h; ++y) {
        const std::uint32_t* p = bs.word_at(0, y);
        for (int x = 0; x < bs.w; ++x, ++out, ++m)
            *out = (p[x] & k_neg) ? -static_cast<std::int32_t>(*m)
                                  : static_cast<std::int32_t>(*m);
    }
}

void tier1_decode_layered(const layered_codeblock& cb, std::int32_t* out,
                          band orient, int layers, tier1_stats* stats,
                          std::pmr::memory_resource* mr)
{
    if (cb.width <= 0 || cb.height <= 0)
        throw std::invalid_argument{"tier1_decode_layered: empty block"};
    // One batch decode is the resumable decoder fed every segment in turn —
    // a single code path keeps the incremental session bit-exact by
    // construction (num_planes validation happens in the constructor).
    tier1_block_decoder dec{cb.width, cb.height, cb.num_planes, orient, mr};
    const std::size_t use_layers =
        layers <= 0 ? cb.segments.size()
                    : std::min<std::size_t>(static_cast<std::size_t>(layers),
                                            cb.segments.size());
    for (std::size_t layer = 0; layer < use_layers; ++layer) {
        const auto& seg = cb.segments[layer];
        dec.advance(seg.passes, seg.data, stats);
    }
    dec.read(out);
}

void tier1_decode(const codeblock& cb, std::int32_t* out, band orient,
                  tier1_stats* stats, int max_passes,
                  std::pmr::memory_resource* mr)
{
    if (cb.width <= 0 || cb.height <= 0)
        throw std::invalid_argument{"tier1_decode: empty block"};
    // The whole codeword is one segment of a resumable decode.
    tier1_block_decoder dec{cb.width, cb.height, cb.num_planes, orient, mr};
    dec.advance(max_passes > 0 ? max_passes : cb.pass_count(), cb.data, stats);
    dec.read(out);
}

}  // namespace j2k
