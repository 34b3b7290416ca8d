#include "backend.hpp"

#include "codec.hpp"
#include "session.hpp"

#include <memory>
#include <mutex>

namespace j2k {

namespace {

/// codec::progressive_session over a resumable j2k::decode_session.  Owns a
/// copy of the codestream bytes: the session references them, and the generic
/// interface makes no lifetime promise beyond "bytes outlive the object".
class j2k_session final : public codec::progressive_session {
public:
    explicit j2k_session(std::span<const std::uint8_t> cs)
        : bytes_(cs.begin(), cs.end()), session_{bytes_}
    {
    }

    [[nodiscard]] int total_layers() const override { return session_.total_layers(); }

    [[nodiscard]] codec::image advance_to(int layer) override
    {
        return session_.advance_to(layer);
    }

private:
    std::vector<std::uint8_t> bytes_;
    decode_session session_;
};

class j2k_backend final : public codec::backend {
public:
    [[nodiscard]] std::string_view name() const noexcept override { return "j2k"; }
    [[nodiscard]] std::uint8_t wire_id() const noexcept override
    {
        return k_codec_wire_id;
    }

    [[nodiscard]] codec::capabilities caps() const noexcept override
    {
        codec::capabilities c;
        c.resolution_reduction = true;
        c.quality_layers = true;
        c.pass_cap = true;
        c.progressive = true;
        c.max_components = 4;  // the SIZ-equivalent header check in codestream.cpp
        return c;
    }

    [[nodiscard]] codec::image decode(std::span<const std::uint8_t> bytes,
                                      const codec::decode_request& req) const override
    {
        decoder dec{bytes};
        dec.set_max_passes(req.max_passes);
        dec.set_max_quality_layers(req.max_quality_layers);
        if (req.discard_levels > 0) return dec.decode_reduced(req.discard_levels);
        decode_stats stats;
        const auto grid = dec.tiles();
        const auto& info = dec.info();
        image img{info.width, info.height, info.components, info.bit_depth};
        for (const tile_rect& r : grid) {
            const tile_coeffs tc = dec.entropy_decode(r.index, &stats.t1);
            const tile_pixels tp = dec.idwt(dec.dequantize(tc));
            for (int c = 0; c < info.components; ++c)
                insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)], r);
        }
        dec.finish(img);
        return img;
    }

    [[nodiscard]] std::unique_ptr<codec::progressive_session> open_session(
        std::span<const std::uint8_t> bytes) const override
    {
        return std::make_unique<j2k_session>(bytes);
    }
};

}  // namespace

const codec::backend& ensure_backend_registered()
{
    static const std::shared_ptr<const j2k_backend> instance = [] {
        auto b = std::make_shared<const j2k_backend>();
        codec::register_backend(b);
        return b;
    }();
    return *instance;
}

}  // namespace j2k
