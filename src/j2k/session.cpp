#include "session.hpp"

#include <obs/trace.hpp>
#include <runtime/thread_pool.hpp>

#include <stdexcept>

namespace j2k {

namespace {

void scatter_block(plane& p, int x0, int y0, int w, int h, const std::int32_t* in)
{
    for (int y = 0; y < h; ++y) {
        const std::int32_t* s = in + static_cast<std::ptrdiff_t>(y) * w;
        std::copy(s, s + w, p.row(y0 + y) + x0);
    }
}

void add_stats(decode_stats& into, const decode_stats& s)
{
    into.t1.mq_decisions += s.t1.mq_decisions;
    into.t1.passes += s.t1.passes;
    into.t1.samples += s.t1.samples;
    into.iq_samples += s.iq_samples;
    into.idwt_samples += s.idwt_samples;
    into.ict_samples += s.ict_samples;
    into.dc_samples += s.dc_samples;
}

}  // namespace

struct decode_session::impl {
    decoder dec;
    std::vector<tile_rect> grid;
    int threads = 1;
    int current = 0;     ///< layers consumed so far
    bool poisoned = false;
    /// Segment payload bytes handed to the MQ decoders so far.  Plain streams
    /// decode through decoder::entropy_decode and are not tracked here (a
    /// plain stream has no layer segments — the counter stays 0).
    std::uint64_t seg_bytes = 0;

    /// Persistent tier-1 state of one code block (layered streams only).
    struct block_slot {
        int comp;
        int x0, y0, w, h;
        tier1_block_decoder t1;
    };
    std::vector<std::vector<block_slot>> slots;  ///< [tile] in canonical order

    explicit impl(const decoder& d) : dec{d}, grid{d.tiles()}
    {
        if (dec.info().quality_layers > 1) slots.resize(grid.size());
    }

    [[nodiscard]] bool layered() const noexcept { return dec.info().quality_layers > 1; }

    /// Arithmetic-decode the segments of layers [from, to) for one tile into
    /// the tile's persistent block decoders.  Layer 0 also builds the slots
    /// (block geometry and plane counts live in the layer-0 chunk).
    void feed_tile(int t, int from, int to, tier1_stats* ts, std::uint64_t* bytes)
    {
        OBS_TRACE_SCOPE("j2k", "tier1");
        const stream_info& info = dec.info();
        const tile_rect tr = grid[static_cast<std::size_t>(t)];
        auto& tb = slots[static_cast<std::size_t>(t)];
        for (int l = from; l < to; ++l) {
            byte_reader r{dec.codestream()};
            r.seek(info.chunk_offsets[static_cast<std::size_t>(l) * grid.size() +
                                      static_cast<std::size_t>(t)]);
            std::size_t bi = 0;
            for (int c = 0; c < info.components; ++c) {
                for (const auto& br : subband_layout(tr.width, tr.height, info.levels)) {
                    if (br.width == 0 || br.height == 0) continue;
                    detail::for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                        if (l == 0) {
                            const int planes = r.u8();
                            tb.push_back(block_slot{c, x0, y0, bw, bh,
                                                    tier1_block_decoder{bw, bh, planes, br.b}});
                        }
                        block_slot& s = tb.at(bi);
                        const int passes = r.u8();
                        const std::uint32_t len = r.u32();
                        const auto data = r.bytes(len);
                        s.t1.advance(passes, data, ts);
                        *bytes += len;
                        ++bi;
                    });
                }
            }
        }
    }

    /// Downstream stages for one tile: materialise coefficients (from the
    /// persistent slots, or transiently via entropy_decode for plain
    /// streams), then IQ → IDWT → place into the shared image.
    void synth_tile(int t, image& img, decode_stats* stats)
    {
        const stream_info& info = dec.info();
        const tile_rect tr = grid[static_cast<std::size_t>(t)];
        tile_coeffs tc;
        if (layered()) {
            tc.rect = tr;
            for (int c = 0; c < info.components; ++c)
                tc.comps.emplace_back(tr.width, tr.height);
            std::vector<std::int32_t> blk;
            for (const auto& s : slots[static_cast<std::size_t>(t)]) {
                blk.resize(static_cast<std::size_t>(s.w) * s.h);
                s.t1.read(blk.data());
                scatter_block(tc.comps[static_cast<std::size_t>(s.comp)], s.x0, s.y0,
                              s.w, s.h, blk.data());
            }
        } else {
            tc = dec.entropy_decode(t, stats ? &stats->t1 : nullptr);
        }
        const tile_wavelet tw = dec.dequantize(tc);
        const tile_pixels tp = dec.idwt(tw);
        for (int c = 0; c < info.components; ++c)
            insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)], tr);
        if (stats) {
            const auto n = static_cast<std::uint64_t>(tr.width) *
                           static_cast<std::uint64_t>(tr.height) *
                           static_cast<std::uint64_t>(info.components);
            stats->iq_samples += n;
            stats->idwt_samples += n;
        }
    }
};

decode_session::decode_session(std::span<const std::uint8_t> cs)
    : impl_{std::make_unique<impl>(decoder{cs})}
{
}

decode_session::decode_session(const decoder& dec) : impl_{std::make_unique<impl>(dec)} {}

decode_session::~decode_session() = default;
decode_session::decode_session(decode_session&&) noexcept = default;
decode_session& decode_session::operator=(decode_session&&) noexcept = default;

const stream_info& decode_session::info() const noexcept
{
    return impl_->dec.info();
}

int decode_session::total_layers() const noexcept
{
    return impl_->dec.info().quality_layers;
}

int decode_session::layers_decoded() const noexcept
{
    return impl_->current;
}

bool decode_session::complete() const noexcept
{
    return impl_->current >= total_layers();
}

void decode_session::set_threads(int threads) noexcept
{
    impl_->threads = threads < 1 ? 1 : threads;
}

std::uint64_t decode_session::tier1_segment_bytes() const noexcept
{
    return impl_->seg_bytes;
}

std::size_t decode_session::resident_bytes() const noexcept
{
    std::size_t total = 0;
    for (const auto& tb : impl_->slots)
        for (const auto& s : tb) total += sizeof(s) + s.t1.resident_bytes();
    return total;
}

image decode_session::advance_to(int layers, decode_stats* stats)
{
    impl& im = *impl_;
    if (im.poisoned)
        throw std::logic_error{"decode_session: unusable after an earlier decode error"};
    OBS_TRACE_SCOPE("j2k", "session_advance");

    const stream_info& info = im.dec.info();
    const int total = total_layers();
    const int target = (layers <= 0 || layers > total) ? total : layers;
    const bool feed = im.layered() && target > im.current;

    image img{info.width, info.height, info.components, info.bit_depth};
    const int ntiles = static_cast<int>(im.grid.size());
    const int workers = std::min(im.threads, ntiles);

    auto do_tile = [&](int t, decode_stats* st, std::uint64_t* bytes) {
        if (feed) im.feed_tile(t, im.current, target, st ? &st->t1 : nullptr, bytes);
        im.synth_tile(t, img, st);
    };

    try {
        if (workers > 1) {
            // Tiles are independent; per-tile stats/byte accumulators avoid
            // any shared mutable state inside the loop (tiles write disjoint
            // regions of `img`).  The first tile's exception is rethrown here
            // by parallel_for once the loop has quiesced.
            std::vector<decode_stats> per(static_cast<std::size_t>(ntiles));
            std::vector<std::uint64_t> bytes(static_cast<std::size_t>(ntiles), 0);
            runtime::thread_pool::shared().parallel_for(
                ntiles,
                [&](int t) {
                    OBS_TRACE_SCOPE("j2k", "tile");
                    do_tile(t, stats ? &per[static_cast<std::size_t>(t)] : nullptr,
                            &bytes[static_cast<std::size_t>(t)]);
                },
                workers);
            for (int t = 0; t < ntiles; ++t) {
                if (stats) add_stats(*stats, per[static_cast<std::size_t>(t)]);
                im.seg_bytes += bytes[static_cast<std::size_t>(t)];
            }
        } else {
            std::uint64_t bytes = 0;
            for (int t = 0; t < ntiles; ++t) do_tile(t, stats, &bytes);
            im.seg_bytes += bytes;
        }
    } catch (...) {
        // Partially-fed block state is unrecoverable; refuse further use
        // rather than silently decoding garbage.
        im.poisoned = true;
        throw;
    }

    im.current = im.layered() ? std::max(im.current, target) : 1;
    im.dec.finish(img);
    if (stats) {
        const auto n = static_cast<std::uint64_t>(info.width) *
                       static_cast<std::uint64_t>(info.height) *
                       static_cast<std::uint64_t>(info.components);
        stats->ict_samples += n;
        stats->dc_samples += n;
    }
    return img;
}

image decode_session::advance(decode_stats* stats)
{
    const int next = std::min(layers_decoded() + 1, total_layers());
    return advance_to(next, stats);
}

}  // namespace j2k
