// codec — the codec-neutral image currency (component-cap and depth bounds)
// and the process-wide backend registry (lookup, identity stability, and the
// colliding-registration build-error contract).
#include <codec/backend.hpp>
#include <codec/error.hpp>
#include <codec/image.hpp>

#include <ccsds/ccsds123.hpp>
#include <j2k/backend.hpp>

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace {

// ---- image bounds ----------------------------------------------------------

TEST(CodecImage, ComponentCapAdmitsTheFullMultispectralRange)
{
    // The shared currency lifted the historical 4-component ceiling: any band
    // count a wire byte can carry (1..255) constructs.
    EXPECT_NO_THROW((codec::image{2, 2, 1}));
    EXPECT_NO_THROW((codec::image{2, 2, 4}));
    EXPECT_NO_THROW((codec::image{2, 2, 5}));
    const codec::image wide{2, 2, codec::k_max_components, 16};
    EXPECT_EQ(wide.components(), 255);
    EXPECT_EQ(wide.bit_depth(), 16);
}

TEST(CodecImage, OutOfRangeComponentsKeepTheTypedMessage)
{
    // Zero components rejected with the same exception type and message shape
    // callers already match on.
    for (const int comps : {0, -1, 256, 1000}) {
        try {
            (void)codec::image{2, 2, comps};
            FAIL() << comps << " components accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), "image: 1..255 components supported")
                << comps;
        }
    }
}

TEST(CodecImage, BitDepthBoundsStillHold)
{
    EXPECT_NO_THROW((codec::image{2, 2, 1, 1}));
    EXPECT_NO_THROW((codec::image{2, 2, 1, 16}));
    EXPECT_THROW((codec::image{2, 2, 1, 0}), std::invalid_argument);
    EXPECT_THROW((codec::image{2, 2, 1, 17}), std::invalid_argument);
}

TEST(CodecImage, MakeTestImageEmitsManyBandCubes)
{
    const codec::image cube = codec::make_test_image(16, 8, 32, 16, 9);
    EXPECT_EQ(cube.components(), 32);
    const int maxval = (1 << 16) - 1;
    for (int c = 0; c < cube.components(); ++c)
        for (const std::int32_t v : cube.comp(c).samples()) {
            ASSERT_GE(v, 0);
            ASSERT_LE(v, maxval);
        }
    // Distinct bands carry distinct content (not N copies of one plane).
    EXPECT_NE(cube.comp(0).samples(), cube.comp(31).samples());
}

// ---- registry --------------------------------------------------------------

TEST(CodecRegistry, BuiltinBackendsResolveByIdAndName)
{
    const codec::backend& j2k_be = j2k::ensure_backend_registered();
    const codec::backend& ccsds_be = ccsds::ensure_backend_registered();

    EXPECT_EQ(codec::find_backend(std::uint8_t{0}), &j2k_be);
    EXPECT_EQ(codec::find_backend("j2k"), &j2k_be);
    EXPECT_EQ(codec::find_backend(ccsds::k_codec_wire_id), &ccsds_be);
    EXPECT_EQ(codec::find_backend("ccsds123"), &ccsds_be);
    EXPECT_NE(&j2k_be, &ccsds_be);

    // Unknown ids and names are null, not a throw — the serving layer turns
    // null into the typed unsupported_codec rejection.
    EXPECT_EQ(codec::find_backend(std::uint8_t{200}), nullptr);
    EXPECT_EQ(codec::find_backend("no-such-codec"), nullptr);

    // The snapshot lists both, in registration order, with stable pointers.
    const auto all = codec::backends();
    ASSERT_GE(all.size(), 2u);
    bool saw_j2k = false, saw_ccsds = false;
    for (const codec::backend* b : all) {
        if (b == &j2k_be) saw_j2k = true;
        if (b == &ccsds_be) saw_ccsds = true;
    }
    EXPECT_TRUE(saw_j2k);
    EXPECT_TRUE(saw_ccsds);
}

TEST(CodecRegistry, CapabilitiesDescribeEachCodecHonestly)
{
    const codec::capabilities j = j2k::ensure_backend_registered().caps();
    EXPECT_TRUE(j.resolution_reduction);
    EXPECT_TRUE(j.quality_layers);
    EXPECT_TRUE(j.pass_cap);
    EXPECT_TRUE(j.progressive);

    const codec::capabilities c = ccsds::ensure_backend_registered().caps();
    EXPECT_FALSE(c.resolution_reduction);
    EXPECT_FALSE(c.quality_layers);
    EXPECT_FALSE(c.pass_cap);
    EXPECT_FALSE(c.progressive);
    EXPECT_EQ(c.max_components, 255);
}

namespace fakes {

class fake_backend : public codec::backend {
public:
    fake_backend(std::string_view name, std::uint8_t id)
        : name_{name}, id_{id}
    {
    }
    [[nodiscard]] std::string_view name() const noexcept override
    {
        return name_;
    }
    [[nodiscard]] std::uint8_t wire_id() const noexcept override { return id_; }
    [[nodiscard]] codec::capabilities caps() const noexcept override
    {
        return {};
    }
    [[nodiscard]] codec::image decode(std::span<const std::uint8_t>,
                                      const codec::decode_request&) const override
    {
        throw codec::codestream_error{"fake"};
    }

private:
    std::string_view name_;
    std::uint8_t id_;
};

}  // namespace fakes

TEST(CodecRegistry, CollidingRegistrationsAreRejectedIdempotentOnesAreNot)
{
    (void)j2k::ensure_backend_registered();
    (void)ccsds::ensure_backend_registered();

    // A different backend claiming a taken wire id — or a taken name — is a
    // build error surfaced at registration, not a runtime preference.
    EXPECT_THROW(
        codec::register_backend(std::make_shared<fakes::fake_backend>("imposter", 0)),
        std::invalid_argument);
    EXPECT_THROW(
        codec::register_backend(
            std::make_shared<fakes::fake_backend>("ccsds123", 77)),
        std::invalid_argument);

    // A genuinely new codec registers fine and resolves both ways.
    static const auto novel =
        std::make_shared<fakes::fake_backend>("test-novel", 200);
    codec::register_backend(novel);
    EXPECT_EQ(codec::find_backend(std::uint8_t{200}), novel.get());
    EXPECT_EQ(codec::find_backend("test-novel"), novel.get());

    // Re-registering the same object is idempotent.
    EXPECT_NO_THROW(codec::register_backend(novel));
}

}  // namespace
