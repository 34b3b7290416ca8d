// perfbench/src/wire.cpp — workloads `wire-decode` and `wire-hot`: closed
// loops over the J2NE wire protocol on loopback, against an in-process
// runtime::net::server (1 shard, 2 workers) driven by runtime::net::client
// connections, each on its own thread.
//
//   wire-decode  2 connections, one request in flight each, every request
//                with cache_bypass: each request pays for a decode.  Mix:
//                j2k 5/3 and 9/7 images of 64-256 px, 1 in 8 a CCSDS cube,
//                1 in 8 a 6-layer stream streamed progressively (latency to
//                its final frame).
//   wire-hot     2 connections, 8 pipelined requests in flight each (one
//                send_burst per round), Zipf(1.1) over a few hundred tiny
//                streams that take the small-job batcher; the cache budget is
//                below the working set so misses keep inserting and
//                evicting.  A third thread scrapes /metrics from the ops
//                server at 10 Hz.
//
// Latency is per request: from just before its frame (or burst) is written
// to when its response (or last streamed frame) has been read.
#include "bench.hpp"

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>
#include <runtime/cache/decoded_cache.hpp>
#include <runtime/hash.hpp>
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include <algorithm>
#include <limits>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

namespace perfbench {

namespace {

namespace net = runtime::net;

enum class wkind : std::uint8_t { lossless, lossy, layered, ccsds };
constexpr int k_wkinds = 4;
constexpr int k_connections = 2;
constexpr int k_stream_layers = 6;

struct witem {
    wkind k = wkind::lossless;
    std::vector<std::uint8_t> cs;
    std::uint64_t samples = 0;
    bool progressive = false;
    /// Reference digests of a direct decode: one per streamed layer for
    /// progressive requests, else one.
    std::vector<std::uint64_t> digest;
    codec::image ref;  ///< direct decode, kept for the traced run only
};

struct profile {
    bool hot = false;
    int depth = 1;  ///< requests per burst, per connection
};

witem make_j2k(rng& r, wkind k, extent e, int comps, int depth, bool progressive)
{
    const auto src =
        j2k::make_test_image(e.w, e.h, comps, depth, static_cast<std::uint32_t>(r.next()));
    j2k::codec_params p;
    p.mode = k == wkind::lossy ? j2k::wavelet::w9_7 : j2k::wavelet::w5_3;
    if (k == wkind::layered) p.quality_layers = k_stream_layers;
    witem it;
    it.k = k;
    it.cs = j2k::encode(src, p);
    it.samples = samples_of(src);
    it.progressive = progressive;
    return it;
}

witem make_cube(rng& r, extent e, int bands, int depth, ccsds::neighbor_mode mode)
{
    const auto src =
        j2k::make_test_image(e.w, e.h, bands, depth, static_cast<std::uint32_t>(r.next()));
    witem it;
    it.k = wkind::ccsds;
    it.cs = ccsds::encode(src, {.pred_bands = 3, .mode = mode});
    it.samples = samples_of(src);
    return it;
}

/// wire-decode inputs: fixed classes, seeded jitter and content.
std::vector<witem> make_decode_corpus(std::uint64_t seed)
{
    rng r{seed ^ 0xDEC0DEull};
    struct g {
        int w, comps, depth;
    };
    constexpr std::array<g, 6> plain = {
        {{64, 1, 8}, {96, 3, 8}, {128, 1, 12}, {160, 3, 8}, {224, 1, 10}, {256, 3, 8}}};
    std::vector<witem> out;
    for (const wkind k : {wkind::lossless, wkind::lossy})
        for (const g& c : plain)
            out.push_back(make_j2k(r, k, jitter(r, c.w, c.w), c.comps,
                                   c.depth, false));
    constexpr std::array<g, 4> layered = {{{96, 3, 8}, {128, 1, 12}, {160, 3, 8}, {192, 1, 8}}};
    for (const g& c : layered)
        out.push_back(make_j2k(r, wkind::layered, jitter(r, c.w, c.w),
                               c.comps, c.depth, true));
    out.push_back(make_cube(r, jitter(r, 96, 96), 8, 12, ccsds::neighbor_mode::full));
    out.push_back(make_cube(r, jitter(r, 128, 96), 8, 16, ccsds::neighbor_mode::narrow));
    out.push_back(make_cube(r, jitter(r, 112, 112), 8, 10, ccsds::neighbor_mode::full));
    out.push_back(make_cube(r, jitter(r, 128, 128), 6, 12, ccsds::neighbor_mode::narrow));
    return out;
}

/// wire-hot inputs: a few hundred tiny distinct streams, every payload below
/// the server's 4 KiB small-job threshold.  Item i is Zipf rank i; kind and
/// geometry follow a fixed 10-slot pattern, so every seed has the same hot
/// set shape and the seed only picks content and the request draws.
std::vector<witem> make_hot_corpus(std::uint64_t seed)
{
    struct slot {
        wkind k;
        int side, comps;
    };
    constexpr std::array<slot, 10> pattern = {{{wkind::lossless, 32, 1},
                                               {wkind::lossy, 32, 3},
                                               {wkind::lossless, 24, 3},
                                               {wkind::lossy, 40, 1},
                                               {wkind::layered, 32, 1},
                                               {wkind::lossless, 40, 1},
                                               {wkind::lossy, 24, 3},
                                               {wkind::ccsds, 16, 4},
                                               {wkind::lossless, 32, 3},
                                               {wkind::ccsds, 24, 4}}};
    rng r{seed ^ 0x407ull};
    std::vector<witem> out;
    for (int i = 0; i < 320; ++i) {
        const slot& sl = pattern[static_cast<std::size_t>(i % 10)];
        if (sl.k == wkind::ccsds)
            out.push_back(make_cube(r, {sl.side, 16}, sl.comps, 12,
                                    i % 20 < 10 ? ccsds::neighbor_mode::full
                                                : ccsds::neighbor_mode::narrow));
        else
            out.push_back(make_j2k(r, sl.k, {sl.side, sl.side}, sl.comps, 8, false));
    }
    return out;
}

/// Direct-decode reference digests (and, for the traced run, the images).
void compute_references(std::vector<witem>& corpus, bool keep_images)
{
    for (witem& it : corpus) {
        codec::image img;
        // A direct decode that throws leaves digests no response can match.
        try {
            if (it.k == wkind::ccsds) {
                img = ccsds::decode(it.cs);
                it.digest.assign(1, runtime::fnv1a_image(img));
            } else if (it.progressive) {
                j2k::decoder dec{it.cs};
                it.digest.clear();
                for (int l = 1; l <= k_stream_layers; ++l) {
                    dec.set_max_quality_layers(l);
                    img = dec.decode_all();
                    it.digest.push_back(runtime::fnv1a_image(img));
                }
            } else {
                img = j2k::decode(it.cs);
                it.digest.assign(1, runtime::fnv1a_image(img));
            }
        } catch (const std::exception&) {
            it.digest.assign(it.progressive ? k_stream_layers : 1, 0);
        }
        if (keep_images) it.ref = std::move(img);
    }
}

/// Zipf(s) sampler over ranks 0..n-1.
class zipf {
public:
    zipf(std::size_t n, double s)
    {
        double acc = 0.0;
        for (std::size_t k = 1; k <= n; ++k) cdf_.push_back(acc += 1.0 / std::pow(double(k), s));
        for (double& c : cdf_) c /= acc;
    }
    std::size_t draw(rng& r) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.unit());
        return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    }

private:
    std::vector<double> cdf_;
};

/// One measured request, as the client saw it.
struct sample {
    double latency_ms = 0.0;
    double send_us = 0.0;     ///< time inside send()/send_burst()
    double wait_ms = 0.0;     ///< send returned → response read
    double first_ms = 0.0;    ///< progressive: first streamed frame
    double decode_raw_us = 0.0;
    std::size_t item = 0;  ///< corpus index
};

/// What one connection measured.  Latencies are kept as floats so the log
/// stays small next to the system under test's own memory.
struct conn_log {
    std::vector<std::vector<float>> latency_ms;  ///< by window index
    // Untraced windows only: per corpus input, the fastest request and the
    // summed latency of its requests.
    std::vector<double> best_ms, sum_ms;
    std::vector<std::uint64_t> count;
    // Traced windows only: the client-side split of each request.
    std::vector<double> send_us, wait_ms, first_ms, decode_raw_us;

    void add(const sample& s, int window, bool traced)
    {
        if (latency_ms.size() <= static_cast<std::size_t>(window))
            latency_ms.resize(static_cast<std::size_t>(window) + 1);
        latency_ms[static_cast<std::size_t>(window)].push_back(static_cast<float>(s.latency_ms));
        if (!traced) {
            best_ms[s.item] = std::min(best_ms[s.item], s.latency_ms);
            sum_ms[s.item] += s.latency_ms;
            ++count[s.item];
            return;
        }
        send_us.push_back(s.send_us);
        wait_ms.push_back(s.wait_ms);
        decode_raw_us.push_back(s.decode_raw_us);
        if (s.first_ms > 0) first_ms.push_back(s.first_ms);
    }
};

/// Check one response against the reference digests.  `frames` holds every
/// streamed frame of a progressive request (else the single response).  A
/// payload the client cannot parse fails the check.
bool verify(const witem& it, const std::vector<net::response>& frames, double* decode_raw_us)
try {
    if (frames.empty()) return false;
    if (!it.progressive) {
        const net::response& r = frames.front();
        if (!r.ok() || r.codec != (it.k == wkind::ccsds ? ccsds::k_codec_wire_id : 0)) return false;
        const auto t0 = clk::now();
        const codec::image img = net::decode_image_raw(r.payload);
        *decode_raw_us = ms_since(t0) * 1000.0;
        return runtime::fnv1a_image(img) == it.digest.front();
    }
    if (frames.size() != it.digest.size()) return false;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto lf = net::split_layer_frame(frames[i]);
        if (!lf || lf->layer != static_cast<int>(i) + 1 || lf->last != (i + 1 == frames.size()))
            return false;
        const auto t0 = clk::now();
        const codec::image img = net::decode_image_raw(lf->image);
        if (i + 1 == frames.size()) *decode_raw_us = ms_since(t0) * 1000.0;
        if (runtime::fnv1a_image(img) != it.digest[i]) return false;
    }
    return true;
} catch (const std::exception&) {
    return false;
}

net::request make_request(const witem& it, std::uint32_t id, bool bypass)
{
    net::request q;
    q.codestream = it.cs;
    q.request_id = id;
    q.progressive = it.progressive;
    q.cache_bypass = bypass;
    q.codec = it.k == wkind::ccsds ? ccsds::k_codec_wire_id : 0;
    return q;
}

/// The system under test: server (+ ops plane for wire-hot) and connected
/// clients.  Members are destroyed in reverse order: clients disconnect
/// before the ops plane and the server drain.
struct rig {
    std::unique_ptr<net::server> srv;
    std::unique_ptr<runtime::ops::ops_server> ops;
    std::vector<net::client> clients;
};

struct counters {
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
};

/// Send one round on `cli` (a burst of `ids.size()` requests), read every
/// response, verify, and append the samples.  Returns false on a transport
/// error (the connection is then unusable).
bool round_trip(net::client& cli, const std::vector<witem>& corpus,
                const std::vector<std::size_t>& picks, std::uint32_t& next_id, bool bypass,
                std::vector<sample>* out, counters& cnt)
{
    std::vector<net::request> reqs;
    std::vector<std::uint32_t> ids;
    for (const std::size_t p : picks) {
        ids.push_back(next_id);
        reqs.push_back(make_request(corpus[p], next_id++, bypass));
    }
    std::vector<std::vector<net::response>> got(picks.size());
    std::vector<sample> s(picks.size());
    try {
        const auto t0 = clk::now();
        if (reqs.size() == 1)
            cli.send(reqs.front());
        else
            cli.send_burst(reqs);
        const auto t_sent = clk::now();
        const double send_us = std::chrono::duration<double, std::micro>(t_sent - t0).count();
        std::size_t done = 0;
        while (done < picks.size()) {
            net::response r = cli.recv();
            const double now_ms = ms_since(t0);
            const auto at = std::find(ids.begin(), ids.end(), r.request_id);
            if (at == ids.end()) throw std::runtime_error{"unexpected request id"};
            const auto i = static_cast<std::size_t>(at - ids.begin());
            const bool streaming = r.st == net::status::streaming;
            bool final = true;
            if (streaming) {
                const auto lf = net::split_layer_frame(r);
                final = !lf || lf->last;
                if (got[i].empty()) s[i].first_ms = now_ms;
            }
            got[i].push_back(std::move(r));
            if (final) {
                s[i].latency_ms = now_ms;
                s[i].send_us = send_us;
                s[i].wait_ms = now_ms - send_us / 1000.0;
                ++done;
            }
        }
    } catch (const std::exception&) {
        cnt.attempted += picks.size();
        cnt.failed += picks.size();
        return false;
    }
    for (std::size_t i = 0; i < picks.size(); ++i) {
        const witem& it = corpus[picks[i]];
        const bool ok = verify(it, got[i], &s[i].decode_raw_us);
        ++cnt.attempted;
        if (!ok) {
            ++cnt.failed;
            continue;
        }
        s[i].item = picks[i];
        if (out) out->push_back(s[i]);
    }
    return true;
}

/// Bring the system to ready: start the server (and ops plane), connect the
/// clients, and send every distinct input once, which warms every decode
/// path (and, on wire-hot, fills the cache).
rig bring_up(const profile& pf, const std::vector<witem>& corpus, std::size_t cache_bytes,
             counters& cnt)
{
    rig g;
    net::server_config cfg;
    cfg.service.workers = 2;
    cfg.service.queue_capacity = 256;
    cfg.service.cache_bytes = cache_bytes;
    cfg.shards = 1;
    g.srv = std::make_unique<net::server>(cfg);
    g.srv->start();
    if (pf.hot) {
        g.ops = std::make_unique<runtime::ops::ops_server>(g.srv->service());
        net::server* srv = g.srv.get();
        g.ops->set_extra_counters([srv] {
            const auto st = srv->stats();
            return std::vector<std::pair<std::string, std::uint64_t>>{
                {"net_frames_in_total", st.frames_in},
                {"net_responses_out_total", st.responses_out},
                {"net_bytes_in_total", st.bytes_in},
                {"net_bytes_out_total", st.bytes_out},
                {"net_batched_jobs_total", st.batched_jobs},
            };
        });
        g.ops->start();
    }
    for (int c = 0; c < k_connections; ++c) g.clients.emplace_back("127.0.0.1", g.srv->port());

    std::uint32_t id = 1;
    std::vector<std::size_t> warm(corpus.size());
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = i;
    const std::size_t per = static_cast<std::size_t>(pf.depth);
    for (std::size_t b = 0; b < warm.size(); b += per) {
        const std::vector<std::size_t> picks(
            warm.begin() + static_cast<std::ptrdiff_t>(b),
            warm.begin() + static_cast<std::ptrdiff_t>(std::min(warm.size(), b + per)));
        (void)round_trip(g.clients.front(), corpus, picks, id, !pf.hot, nullptr, cnt);
    }
    return g;
}

struct scrape_sample {
    double ms = 0.0;
    double bytes = 0.0;
    int phase = 0;
};

}  // namespace

result run_wire(const options& opt)
{
    const profile pf{.hot = opt.workload == "wire-hot", .depth = opt.workload == "wire-hot" ? 8 : 1};
    std::vector<witem> corpus = pf.hot ? make_hot_corpus(opt.seed) : make_decode_corpus(opt.seed);
    compute_references(corpus, opt.trace);

    // wire-hot: a cache budget below the decoded working set, so the Zipf
    // tail keeps missing, inserting and evicting.  wire-decode: a cache
    // every request bypasses.
    std::size_t working_set = 0;
    for (const witem& it : corpus) working_set += it.samples * sizeof(std::int32_t);
    const std::size_t cache_bytes = pf.hot ? working_set * 17 / 20 : (64u << 20);

    // The system under test and the clients share the first CPUs (one for
    // wire-hot, two for wire-decode's two workers); the harness's own thread
    // moves to the others once they are started.  On a virtualised host a
    // request/response ping-pong between threads on different, otherwise
    // idle CPUs pays a hypervisor wake-up per hand-off, and where the
    // scheduler happens to place the threads swings wire-hot's throughput
    // 2-3x from run to run; fixed placement makes the figure repeatable.
    // wire-hot on one CPU measures the stack's CPU cost per request.
    const int sut_cpus = pf.hot ? 1 : 2;
    pin(0, sut_cpus);
    counters cnt;
    result res;
    std::vector<double> setups;
    std::optional<rig> g;
    for (int i = 0; i < 5; ++i) {
        g.reset();
        const auto t0 = clk::now();
        g.emplace(bring_up(pf, corpus, cache_bytes, cnt));
        setups.push_back(std::chrono::duration<double>(clk::now() - t0).count());
    }
    net::server& srv = *g->srv;
    runtime::decode_service& svc = srv.service();

    // Request sequences: per connection, seeded.
    // wire-decode walks a shuffled deck with the mix in exact proportions
    // (each plain image twice, each cube and layered stream once: 3 in 4
    // plain, 1 in 8 CCSDS, 1 in 8 progressive), so a run's cost does not
    // depend on how often the random draws hit the 256 px class.
    std::vector<std::size_t> deck;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        deck.push_back(i);
        if (corpus[i].k == wkind::lossless || corpus[i].k == wkind::lossy) deck.push_back(i);
    }
    const zipf zp{corpus.size(), 1.1};

    const auto m0 = svc.metrics();
    const auto s0 = srv.stats();
    const auto c0 = svc.cache() ? svc.cache()->stats() : runtime::cache_stats{};

    std::atomic<bool> stop{false};
    // The run is cut into windows; a round belongs to the window it started
    // in.  In the traced run windows alternate untraced / traced.  Rounds
    // that start after the last window are not logged.
    const int windows = opt.trace ? std::max(2, static_cast<int>(std::lround(opt.seconds))) : 1;
    std::atomic<int> phase{0};
    std::array<conn_log, k_connections> logs;
    for (conn_log& l : logs) {
        l.best_ms.assign(corpus.size(), std::numeric_limits<double>::infinity());
        l.sum_ms.assign(corpus.size(), 0.0);
        l.count.assign(corpus.size(), 0);
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < k_connections; ++c) {
        threads.emplace_back([&, c] {
            rng r{opt.seed * 31 + static_cast<std::uint64_t>(c) + 7};
            std::uint32_t id = 1u << 20;
            net::client& cli = g->clients[static_cast<std::size_t>(c)];
            std::vector<std::size_t> my_deck = deck;
            std::size_t dealt = my_deck.size();
            auto draw = [&]() -> std::size_t {
                if (pf.hot) return zp.draw(r);
                if (dealt == my_deck.size()) {
                    for (std::size_t i = my_deck.size(); i > 1; --i)
                        std::swap(my_deck[i - 1], my_deck[r.next() % i]);
                    dealt = 0;
                }
                return my_deck[dealt++];
            };
            while (!stop.load(std::memory_order_relaxed)) {
                std::vector<std::size_t> picks;
                for (int i = 0; i < pf.depth; ++i) picks.push_back(draw());
                const int ph = phase.load(std::memory_order_relaxed);
                std::vector<sample> got;
                if (!round_trip(cli, corpus, picks, id, !pf.hot, &got, cnt)) break;
                // A round that straddles a tracing switch belongs to neither side.
                if (ph >= windows || (opt.trace && phase.load(std::memory_order_relaxed) != ph))
                    continue;
                for (const sample& s : got)
                    logs[static_cast<std::size_t>(c)].add(s, ph, opt.trace && ph % 2 == 1);
            }
        });
    }
    std::vector<scrape_sample> scrapes;
    std::thread scraper;
    if (pf.hot) {
        scraper = std::thread([&] {
            const std::uint16_t port = g->ops->port();
            auto next = clk::now();
            while (!stop.load(std::memory_order_relaxed)) {
                next += std::chrono::milliseconds(100);
                const int ph = phase.load(std::memory_order_relaxed);
                const auto t0 = clk::now();
                bool ok = false;
                std::size_t bytes = 0;
                try {
                    const auto resp = runtime::ops::http_get("127.0.0.1", port, "/metrics");
                    ok = resp.status == 200 && !resp.body.empty();
                    bytes = resp.body.size();
                } catch (const std::exception&) {
                }
                const double ms = ms_since(t0);
                ++cnt.attempted;
                if (!ok) ++cnt.failed;
                else if (ph < windows && phase.load(std::memory_order_relaxed) == ph)
                    scrapes.push_back({ms, static_cast<double>(bytes), ph});
                std::this_thread::sleep_until(next);
            }
        });
    }

    pin(sut_cpus, 0);

    // Measurement: one window, or in the traced run 1 s windows that
    // alternate untraced / traced (the tracer is drained every 100 ms while
    // armed).
    auto& tr = obs::tracer::instance();
    span_recorder rec;
    const double window_ms = opt.seconds * 1000.0 / windows;
    std::vector<double> phase_ms, cal;
    for (int w = 0; w < windows; ++w) {
        cal.push_back(calibration_slice_ms());
        const bool traced = opt.trace && w % 2 == 1;
        tr.set_enabled(traced);
        if (traced) rec.start_at(tr.now_ns());
        const auto p0 = clk::now();
        phase.store(w);
        while (ms_since(p0) < window_ms) {
            std::this_thread::sleep_for(std::chrono::milliseconds(traced ? 100 : 10));
            if (traced) rec.drain();
        }
        if (traced) {
            tr.set_enabled(false);
            rec.drain();
        }
        phase_ms.push_back(ms_since(p0));
    }
    phase.store(windows);  // rounds from here on are outside the measurement
    tr.set_enabled(false);
    stop = true;
    for (auto& t : threads) t.join();
    if (scraper.joinable()) scraper.join();

    const auto m1 = svc.metrics();
    const auto s1 = srv.stats();
    const auto c1 = svc.cache() ? svc.cache()->stats() : runtime::cache_stats{};
    const int workers = svc.workers();
    g.reset();

    res.attempted = cnt.attempted.load();
    res.failed = cnt.failed.load();

    auto& m = res.metrics;
    m["setup_s"] = median(setups);
    m["peak_rss_mb"] = peak_rss_mb();
    m["host.calibration_ms"] = median(cal);
    // End-to-end metrics pool every request of the untraced windows: they
    // include the queueing a client sees.  Per-kind MS/s depends on whether
    // requests are pipelined.  With one request in flight (wire-decode) an
    // input's fastest request is its turnaround through the whole stack
    // without queueing, steady under a noisy neighbour that only adds time;
    // the figure is the median over the kind's inputs.  In a pipelined burst
    // (wire-hot) a request's latency is mostly its place in the burst, so
    // the fastest request is luck; the figure is the kind's output samples
    // over the sum of its request latencies.
    std::array<std::vector<double>, 2> lat;  // [untraced, traced]
    double plain_ms = 0.0, traced_ms = 0.0;
    for (int w = 0; w < windows; ++w) {
        const bool traced = opt.trace && w % 2 == 1;
        (traced ? traced_ms : plain_ms) += phase_ms[static_cast<std::size_t>(w)];
        for (const conn_log& l : logs) {
            if (l.latency_ms.size() <= static_cast<std::size_t>(w)) continue;
            const auto& x = l.latency_ms[static_cast<std::size_t>(w)];
            lat[traced ? 1 : 0].insert(lat[traced ? 1 : 0].end(), x.begin(), x.end());
        }
    }
    std::array<std::vector<double>, k_wkinds> kind_mss;  // per input (wire-decode)
    std::array<double, k_wkinds> kind_samples{}, kind_ms{};   // per kind (wire-hot)
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto k = static_cast<std::size_t>(corpus[i].k);
        double best = std::numeric_limits<double>::infinity();
        for (const conn_log& l : logs) {
            best = std::min(best, l.best_ms[i]);
            kind_samples[k] += static_cast<double>(corpus[i].samples * l.count[i]);
            kind_ms[k] += l.sum_ms[i];
        }
        if (std::isfinite(best))
            kind_mss[k].push_back(static_cast<double>(corpus[i].samples) / (best * 1000.0));
    }
    auto mss = [&](wkind kind) {
        const auto k = static_cast<std::size_t>(kind);
        if (pf.depth == 1) return median(kind_mss[k]);
        return kind_ms[k] > 0 ? kind_samples[k] / (kind_ms[k] * 1000.0) : 0.0;
    };
    m["requests_per_s"] = static_cast<double>(lat[0].size()) / (plain_ms / 1000.0);
    m["latency_p50_ms"] = median(lat[0]);
    m["latency_p99_ms"] = quantile(lat[0], 0.99);
    m["j2k_lossless_mss"] = mss(wkind::lossless);
    m["j2k_lossy_mss"] = mss(wkind::lossy);
    m["j2k_layered_mss"] = mss(wkind::layered);
    m["ccsds_mss"] = mss(wkind::ccsds);

    if (opt.trace) {
        // Per-layer metrics from the traced phases.
        std::vector<double> send_us, wait_ms, first_ms, raw_us;
        for (const conn_log& l : logs) {
            send_us.insert(send_us.end(), l.send_us.begin(), l.send_us.end());
            wait_ms.insert(wait_ms.end(), l.wait_ms.begin(), l.wait_ms.end());
            first_ms.insert(first_ms.end(), l.first_ms.begin(), l.first_ms.end());
            raw_us.insert(raw_us.end(), l.decode_raw_us.begin(), l.decode_raw_us.end());
        }
        const auto& qw = rec.get("job/queue_wait").durations_ms;
        const auto& job = rec.get("job/job").durations_ms;
        m["runtime.queue_wait_ms.p50"] = median(qw);
        m["runtime.queue_wait_ms.p99"] = quantile(qw, 0.99);
        m["runtime.service.latency_p50_ms"] = median(job);
        m["runtime.service.latency_p99_ms"] = quantile(job, 0.99);
        const double jobs = static_cast<double>(
            std::max<std::uint64_t>(1, m1.jobs_completed - m0.jobs_completed));
        m["runtime.stage_ms.entropy"] = (m1.entropy_ms - m0.entropy_ms) / jobs;
        m["runtime.stage_ms.iq"] = (m1.iq_ms - m0.iq_ms) / jobs;
        m["runtime.stage_ms.idwt"] = (m1.idwt_ms - m0.idwt_ms) / jobs;
        m["runtime.stage_ms.finish"] = (m1.finish_ms - m0.finish_ms) / jobs;
        double busy = 0.0;
        for (const char* s : {"runtime/decode_job", "runtime/progressive_job", "runtime/tile", "j2k/tile"})
            busy += rec.get(s).top_ms;
        m["runtime.worker_busy_share"] = traced_ms > 0 ? busy / (workers * traced_ms) : 0.0;
        m["runtime.pool.steals_per_job"] = static_cast<double>(m1.tasks_stolen - m0.tasks_stolen) / jobs;
        m["runtime.arena.fallback_allocs"] =
            static_cast<double>(m1.arena_fallback_allocs - m0.arena_fallback_allocs);
        m["runtime.arena.high_water_bytes"] = static_cast<double>(m1.arena_high_water_bytes);
        const double hits = static_cast<double>(c1.hits - c0.hits);
        const double misses = static_cast<double>(c1.misses - c0.misses);
        m["runtime.cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
        m["runtime.cache.inserts"] = static_cast<double>(c1.inserts - c0.inserts);
        m["runtime.cache.evictions"] = static_cast<double>(c1.evictions - c0.evictions);
        m["runtime.cache.collapses"] = static_cast<double>(c1.collapses - c0.collapses);
        m["net.client.send_us"] = median(send_us);
        m["net.client.wait_ms"] = median(wait_ms);
        m["net.client.decode_raw_us"] = median(raw_us);
        m["net.overhead_ms"] = median(lat[1]) - median(job);
        m["net.progressive.first_frame_ms"] = median(first_ms);
        const double frames = static_cast<double>(std::max<std::uint64_t>(1, s1.frames_in - s0.frames_in));
        m["net.server.batched_share"] = static_cast<double>(s1.batched_jobs - s0.batched_jobs) / frames;
        m["net.server.pool_submissions_per_frame"] =
            static_cast<double>(m1.pool_submissions - m0.pool_submissions) / frames;
        m["net.server.bytes_out_per_request"] = static_cast<double>(s1.bytes_out - s0.bytes_out) / frames;
        std::vector<double> enc_us;
        for (const witem& it : corpus) {
            const auto t0 = clk::now();
            const auto bytes = net::encode_image_raw(it.ref);
            enc_us.push_back(ms_since(t0) * 1000.0);
            if (bytes.empty()) ++res.failed;
        }
        m["net.protocol.encode_raw_us"] = median(enc_us);
        std::vector<double> sc_ms, sc_bytes;
        for (const scrape_sample& s : scrapes) {
            if (s.phase % 2 == 0) continue;
            sc_ms.push_back(s.ms);
            sc_bytes.push_back(s.bytes);
        }
        m["ops.scrape_ms.p50"] = median(sc_ms);
        m["ops.scrape_ms.p99"] = quantile(sc_ms, 0.99);
        m["ops.scrape_bytes"] = median(sc_bytes);
        m["j2k.session.advance_ms"] = median(rec.get("j2k/session_advance").durations_ms);
        const double rate_plain = static_cast<double>(lat[0].size()) / plain_ms;
        const double rate_traced = static_cast<double>(lat[1].size()) / traced_ms;
        m["obs.tracing_overhead_share"] = rate_traced > 0 ? rate_plain / rate_traced - 1.0 : 0.0;
    }
    return res;
}

}  // namespace perfbench
