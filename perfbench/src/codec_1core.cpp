// perfbench/src/codec_1core.cpp — workload `codec-1core`: one thread, no
// service.  A seeded corpus is decoded in a loop through the public codec
// entry points: j2k 5/3 and 9/7 streams stage by stage (j2k::decoder),
// 6-layer streams layer by layer (j2k::decode_session), and CCSDS cubes in
// full and narrow mode (ccsds::decode).
//
// The corpus is stratified: the classes (size band, components, bit depth,
// mode) are fixed, and the seed jitters each geometry and picks the content,
// so every seed measures the same mix and per-kind medians stay comparable
// across seeds.
#include "bench.hpp"

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>
#include <runtime/hash.hpp>

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

enum class kind { lossless, lossy, layered, ccsds_full, ccsds_narrow };
constexpr int k_kinds = 5;
constexpr int k_layers = 6;

struct item {
    kind k = kind::lossless;
    std::vector<std::uint8_t> cs;
    std::uint64_t samples = 0;
    /// Reference digests from a direct decode: one entry, or one per layer
    /// for layered streams (the last is the full-depth image).
    std::vector<std::uint64_t> digest;
    /// Exact work counts of the first measured decode; later decodes of the
    /// same input must repeat them.
    std::uint64_t mq_decisions = 0;
    std::uint64_t segment_bytes = 0;
    bool counted = false;
    std::vector<double> ms;  ///< untraced decode times
};

struct geometry {
    int w, h, comps, depth;
};

// Fixed classes; the seed moves each side by up to 8 px and picks content.
constexpr std::array<geometry, 7> k_lossless = {{{64, 64, 1, 8},
                                                 {96, 128, 3, 8},
                                                 {160, 160, 1, 12},
                                                 {256, 192, 3, 8},
                                                 {256, 256, 1, 16},
                                                 {320, 320, 3, 10},
                                                 {512, 384, 1, 8}}};
constexpr std::array<geometry, 7> k_lossy = {{{64, 96, 3, 8},
                                              {128, 128, 1, 8},
                                              {192, 160, 3, 12},
                                              {256, 256, 3, 8},
                                              {288, 224, 1, 16},
                                              {384, 320, 3, 8},
                                              {512, 512, 1, 10}}};
constexpr std::array<geometry, 4> k_layered = {{{128, 128, 3, 8},
                                                {192, 160, 1, 12},
                                                {256, 256, 3, 8},
                                                {320, 256, 1, 10}}};
// CCSDS cubes: components are spectral bands.
constexpr std::array<geometry, 3> k_cubes = {{{64, 64, 8, 12},
                                              {96, 80, 16, 16},
                                              {128, 128, 4, 10}}};

std::vector<item> make_corpus(std::uint64_t seed)
{
    rng r{seed ^ 0xC0DEC1C0DEull};
    std::vector<item> out;
    auto add_j2k = [&](kind k, const geometry& g) {
        const extent e = jitter(r, g.w, g.h);
        const auto src = j2k::make_test_image(e.w, e.h, g.comps, g.depth,
                                              static_cast<std::uint32_t>(r.next()));
        j2k::codec_params p;
        p.mode = k == kind::lossy ? j2k::wavelet::w9_7 : j2k::wavelet::w5_3;
        if (k == kind::layered) {
            p.quality_layers = k_layers;
            if (g.comps == 1) p.mode = j2k::wavelet::w9_7;
        }
        item it;
        it.k = k;
        it.cs = j2k::encode(src, p);
        it.samples = samples_of(src);
        // 5/3 without layers is lossless: the source pins the reference.
        if (k == kind::lossless) it.digest.push_back(runtime::fnv1a_image(src));
        out.push_back(std::move(it));
    };
    for (const auto& g : k_lossless) add_j2k(kind::lossless, g);
    for (const auto& g : k_lossy) add_j2k(kind::lossy, g);
    for (const auto& g : k_layered) add_j2k(kind::layered, g);
    for (const kind k : {kind::ccsds_full, kind::ccsds_narrow}) {
        for (const auto& g : k_cubes) {
            const extent e = jitter(r, g.w, g.h);
            const auto src = j2k::make_test_image(e.w, e.h, g.comps, g.depth,
                                                  static_cast<std::uint32_t>(r.next()));
            ccsds::params p;
            p.mode = k == kind::ccsds_full ? ccsds::neighbor_mode::full
                                           : ccsds::neighbor_mode::narrow;
            item it;
            it.k = k;
            it.cs = ccsds::encode(src, p);
            it.samples = samples_of(src);
            // Lossless codec: the source itself is the oracle's oracle.
            it.digest.push_back(runtime::fnv1a_image(src));
            out.push_back(std::move(it));
        }
    }
    return out;
}

/// Reference digests from the direct (one-shot) decode paths.  Returns the
/// number of inputs whose direct decode throws or, for lossless inputs,
/// disagrees with the source; their later decodes fail the digest check.
int compute_references(std::vector<item>& corpus)
{
    int bad = 0;
    for (item& it : corpus) {
        try {
            if (it.k == kind::layered) {
                j2k::decoder dec{it.cs};
                for (int l = 1; l <= k_layers; ++l) {
                    dec.set_max_quality_layers(l);
                    it.digest.push_back(runtime::fnv1a_image(dec.decode_all()));
                }
                continue;
            }
            const bool cube = it.k == kind::ccsds_full || it.k == kind::ccsds_narrow;
            const auto d = runtime::fnv1a_image(cube ? ccsds::decode(it.cs) : j2k::decode(it.cs));
            if (!it.digest.empty() && d != it.digest[0]) ++bad;
            it.digest.assign(1, d);
        } catch (const std::exception&) {
            ++bad;
            it.digest.assign(it.k == kind::layered ? k_layers : 1, 0);
        }
    }
    return bad;
}

/// The staged decode: the paper's Figure 1 split, tile by tile.
codec::image decode_staged(const item& it, j2k::tier1_stats& t1)
{
    bench_span op{"bench", "j2k_decode"};
    std::optional<j2k::decoder> dec;
    {
        bench_span s{"bench", "j2k_parse"};
        dec.emplace(it.cs);
    }
    const auto& info = dec->info();
    codec::image img{info.width, info.height, info.components, info.bit_depth};
    const auto grid = dec->tiles();
    for (int t = 0; t < static_cast<int>(grid.size()); ++t) {
        const j2k::tile_coeffs tc = dec->entropy_decode(t, &t1);
        const j2k::tile_wavelet tw = dec->dequantize(tc);
        const j2k::tile_pixels tp = dec->idwt(tw);
        bench_span s{"bench", "j2k_insert_tile"};
        for (int c = 0; c < info.components; ++c)
            j2k::insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)],
                             grid[static_cast<std::size_t>(t)]);
    }
    dec->finish(img);
    return img;
}

struct op_outcome {
    double ms = 0.0;
    bool ok = true;
};

/// Decode one input through its public entry point, timing only the decode
/// calls, then check every produced image against the reference digests and
/// the exact work counts against the input's first decode.  A decode that
/// throws is a failed operation.
op_outcome run_op(item& it)
try {
    op_outcome o;
    std::uint64_t mq = 0;
    std::uint64_t seg = 0;
    switch (it.k) {
    case kind::lossless:
    case kind::lossy: {
        j2k::tier1_stats t1;
        const auto t0 = clk::now();
        const codec::image img = decode_staged(it, t1);
        o.ms = ms_since(t0);
        o.ok = runtime::fnv1a_image(img) == it.digest[0];
        mq = t1.mq_decisions;
        break;
    }
    case kind::layered: {
        j2k::decode_stats st;
        std::vector<std::uint64_t> got;
        std::optional<j2k::decode_session> s;
        {
            bench_span span{"bench", "j2k_layered"};
            const auto t0 = clk::now();
            s.emplace(it.cs);
            o.ms += ms_since(t0);
        }
        for (int l = 1; l <= k_layers; ++l) {
            codec::image img;
            {
                bench_span span{"bench", "j2k_layered"};
                const auto t0 = clk::now();
                img = s->advance_to(l, &st);
                o.ms += ms_since(t0);
            }
            got.push_back(runtime::fnv1a_image(img));
        }
        o.ok = got == it.digest;
        mq = st.t1.mq_decisions;
        seg = s->tier1_segment_bytes();
        break;
    }
    case kind::ccsds_full:
    case kind::ccsds_narrow: {
        const auto t0 = clk::now();
        codec::image img;
        {
            bench_span span{"bench", "ccsds_decode"};
            img = ccsds::decode(it.cs);
        }
        o.ms = ms_since(t0);
        o.ok = runtime::fnv1a_image(img) == it.digest[0];
        break;
    }
    }
    if (!it.counted) {
        it.mq_decisions = mq;
        it.segment_bytes = seg;
        it.counted = true;
    } else if (it.mq_decisions != mq || it.segment_bytes != seg) {
        o.ok = false;
    }
    return o;
} catch (const std::exception&) {
    return {0.0, false};
}

/// Bring the decoders to ready: parse every input's header and warm each
/// decode path once on the smallest input of its kind.
double setup_once(std::vector<item>& corpus)
{
    const auto t0 = clk::now();
    std::array<const item*, k_kinds> smallest{};
    for (const item& it : corpus) {
        if (it.k == kind::ccsds_full || it.k == kind::ccsds_narrow)
            (void)ccsds::read_header(it.cs);
        else
            (void)j2k::decoder{it.cs};
        auto& s = smallest[static_cast<std::size_t>(it.k)];
        if (!s || it.samples < s->samples) s = &it;
    }
    for (const item* it : smallest) {
        if (it->k == kind::ccsds_full || it->k == kind::ccsds_narrow) {
            (void)ccsds::decode(it->cs);
        } else if (it->k == kind::layered) {
            j2k::decode_session s{it->cs};
            (void)s.advance_to(0);
        } else {
            j2k::tier1_stats t1;
            (void)decode_staged(*it, t1);
        }
    }
    return std::chrono::duration<double>(clk::now() - t0).count();
}

const char* kind_name(kind k)
{
    switch (k) {
    case kind::lossless: return "lossless";
    case kind::lossy: return "lossy";
    case kind::layered: return "layered";
    case kind::ccsds_full: return "full";
    case kind::ccsds_narrow: return "narrow";
    }
    return "?";
}

}  // namespace

result run_codec_1core(const options& opt)
{
    // One thread on one CPU: no migrations between passes.
    pin(0, 1);
    result res;
    std::vector<item> corpus = make_corpus(opt.seed);
    const int bad_refs = compute_references(corpus);
    res.attempted += static_cast<std::uint64_t>(corpus.size());
    res.failed += static_cast<std::uint64_t>(bad_refs);

    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) setups.push_back(setup_once(corpus));

    // Seeded visiting order, fixed for the run.
    std::vector<std::size_t> order(corpus.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng shuffle{opt.seed ^ 0x5EEDull};
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[shuffle.next() % i]);

    auto& tr = obs::tracer::instance();
    std::array<span_recorder, k_kinds> rec;
    std::array<std::uint64_t, k_kinds> traced_samples{};
    std::array<std::uint64_t, k_kinds> traced_bytes{};
    std::vector<double> cal;
    double traced_pass_ms = 0.0, plain_pass_ms = 0.0;
    int traced_passes = 0, plain_passes = 0;

    const auto start = clk::now();
    const double budget_ms = opt.seconds * 1000.0;
    for (int pass = 0; ms_since(start) < budget_ms; ++pass) {
        // The traced run alternates untraced and traced passes over the same
        // inputs; the untraced ones give the tracing-overhead baseline.
        const bool traced = opt.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        double pass_ms = 0.0;
        bool whole = true;
        for (const std::size_t idx : order) {
            if (ms_since(start) >= budget_ms) {
                whole = false;
                break;
            }
            item& it = corpus[idx];
            const auto ki = static_cast<std::size_t>(it.k);
            if (traced) rec[ki].start_at(tr.now_ns());
            const op_outcome o = run_op(it);
            if (traced) {
                rec[ki].drain();
                traced_samples[ki] += it.samples;
                traced_bytes[ki] += it.cs.size();
            }
            ++res.attempted;
            if (!o.ok) ++res.failed;
            pass_ms += o.ms;
            if (!traced) it.ms.push_back(o.ms);
        }
        cal.push_back(calibration_slice_ms());
        if (!whole) continue;
        (traced ? traced_pass_ms : plain_pass_ms) += pass_ms;
        ++(traced ? traced_passes : plain_passes);
    }
    tr.set_enabled(false);

    auto& m = res.metrics;
    m["setup_s"] = median(setups);
    m["peak_rss_mb"] = peak_rss_mb();
    m["host.calibration_ms"] = median(cal);
    // Every input is decoded once per pass, so its fastest untraced decode
    // is its decode time on this core: a noisy neighbour on a shared host
    // only ever adds time.  On a shared 4-vCPU virtualised host the fastest
    // of ~25 repeats had a run-to-run spread of 0.06-0.17 where the lower
    // quartile had 0.20-0.24.  The figures describe the corpus at those
    // times: a pass rate, percentiles over inputs, and per kind the median
    // over the kind's inputs of their MS/s.
    auto best_of = [](const item& it) { return *std::min_element(it.ms.begin(), it.ms.end()); };
    std::vector<double> best;
    double pass_best_ms = 0.0;
    for (const item& it : corpus) {
        if (it.ms.empty()) continue;
        best.push_back(best_of(it));
        pass_best_ms += best.back();
    }
    m["requests_per_s"] = pass_best_ms > 0 ? static_cast<double>(best.size()) / (pass_best_ms / 1000.0) : 0.0;
    m["latency_p50_ms"] = median(best);
    m["latency_p99_ms"] = quantile(best, 0.99);
    auto mss = [&](std::initializer_list<kind> ks) {
        std::vector<double> v;
        for (const item& it : corpus)
            if (std::find(ks.begin(), ks.end(), it.k) != ks.end() && !it.ms.empty())
                v.push_back(static_cast<double>(it.samples) / (best_of(it) * 1000.0));
        return median(std::move(v));
    };
    m["j2k_lossless_mss"] = mss({kind::lossless});
    m["j2k_lossy_mss"] = mss({kind::lossy});
    m["j2k_layered_mss"] = mss({kind::layered});
    m["ccsds_mss"] = mss({kind::ccsds_full, kind::ccsds_narrow});

    // Exact per-pass work counts over the corpus.
    std::uint64_t mq = 0, seg = 0, samples = 0;
    for (const item& it : corpus) {
        mq += it.mq_decisions;
        seg += it.segment_bytes;
        samples += it.samples;
    }
    res.invariants["j2k.tier1.mq_decisions"] = mq;
    res.invariants["j2k.session.tier1_segment_bytes"] = seg;
    res.invariants["codec.decoded_samples"] = samples;

    if (opt.trace) {
        auto self_ns_per_sample = [&](kind k, const char* span) {
            const auto ki = static_cast<std::size_t>(k);
            return traced_samples[ki] ? rec[ki].get(span).self_ms * 1e6 /
                                            static_cast<double>(traced_samples[ki])
                                      : 0.0;
        };
        for (const kind k : {kind::lossless, kind::lossy, kind::layered}) {
            const std::string n = kind_name(k);
            m["j2k.tier1.ns_per_sample." + n] = self_ns_per_sample(k, "j2k/tier1");
        }
        for (const kind k : {kind::lossless, kind::lossy}) {
            const auto ki = static_cast<std::size_t>(k);
            const std::string n = kind_name(k);
            const span_totals& t1 = rec[ki].get("j2k/tier1");
            const span_totals& op = rec[ki].get("bench/j2k_decode");
            m["j2k.tier1.compressed_mb_s." + n] =
                t1.total_ms > 0 ? static_cast<double>(traced_bytes[ki]) / 1e3 / t1.total_ms : 0.0;
            m["j2k.tier1.share." + n] = op.total_ms > 0 ? t1.self_ms / op.total_ms : 0.0;
            m["j2k.idwt.ns_per_sample." + n] = self_ns_per_sample(k, "j2k/idwt");
            m["j2k.ict.ns_per_sample." + n] = self_ns_per_sample(k, "j2k/ict");
        }
        m["j2k.iq.ns_per_sample.lossy"] = self_ns_per_sample(kind::lossy, "j2k/iq");
        {
            double dc_ms = 0.0, covered = 0.0, op_ms = 0.0;
            std::uint64_t n = 0;
            std::vector<double> parse;
            for (const kind k : {kind::lossless, kind::lossy}) {
                const auto& r = rec[static_cast<std::size_t>(k)];
                dc_ms += r.get("j2k/dc_shift").self_ms;
                n += traced_samples[static_cast<std::size_t>(k)];
                for (const char* s : {"j2k/tier1", "j2k/iq", "j2k/idwt", "j2k/ict", "j2k/dc_shift"})
                    covered += r.get(s).self_ms;
                op_ms += r.get("bench/j2k_decode").total_ms;
                const auto& p = r.get("bench/j2k_parse").durations_ms;
                parse.insert(parse.end(), p.begin(), p.end());
            }
            m["j2k.dc_shift.ns_per_sample"] = n ? dc_ms * 1e6 / static_cast<double>(n) : 0.0;
            m["j2k.stage_coverage_share"] = op_ms > 0 ? covered / op_ms : 0.0;
            m["j2k.parse_us"] = median(parse) * 1000.0;
        }
        m["j2k.session.advance_ms"] =
            median(rec[static_cast<std::size_t>(kind::layered)].get("j2k/session_advance").durations_ms);
        m["ccsds.decode.ns_per_sample.full"] = self_ns_per_sample(kind::ccsds_full, "bench/ccsds_decode");
        m["ccsds.decode.ns_per_sample.narrow"] =
            self_ns_per_sample(kind::ccsds_narrow, "bench/ccsds_decode");
        m["obs.tracing_overhead_share"] =
            traced_passes && plain_passes && plain_pass_ms > 0
                ? (traced_pass_ms / traced_passes) / (plain_pass_ms / plain_passes) - 1.0
                : 0.0;
    }
    return res;
}

}  // namespace perfbench
