// HTTP ops plane: request parsing (torn, oversized, garbage), endpoint
// behaviour over a real loopback socket, /metrics scraped concurrently with
// decode load (the TSan leg), /readyz flipping while the service drains, and
// /trace emitting valid, disjoint, concatenable JSON.
#include <runtime/ops/http.hpp>
#include <runtime/ops/http_client.hpp>
#include <runtime/ops/ops_server.hpp>

#include <ccsds/ccsds123.hpp>

#include <j2k/j2k.hpp>
#include <obs/obs.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

namespace {

using runtime::ops::http_parser;
using runtime::ops::http_request;

// ---------------------------------------------------------------------------
// Parser unit tests (no sockets).

TEST(HttpParser, SimpleGetParses)
{
    http_parser p;
    EXPECT_EQ(p.feed("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
              http_parser::state::complete);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().path, "/metrics");
    EXPECT_TRUE(p.request().query.empty());
}

TEST(HttpParser, TornRequestAssemblesAcrossFeeds)
{
    http_parser p;
    // Byte-at-a-time delivery: the parser must stay partial until the blank
    // line lands, then produce the same parse as a single feed.
    const std::string req = "GET /trace?since_ns=123 HTTP/1.1\r\nA: b\r\n\r\n";
    for (std::size_t i = 0; i + 1 < req.size(); ++i)
        ASSERT_EQ(p.feed({&req[i], 1}), http_parser::state::partial) << "at byte " << i;
    EXPECT_EQ(p.feed({&req[req.size() - 1], 1}), http_parser::state::complete);
    EXPECT_EQ(p.request().path, "/trace");
    EXPECT_EQ(p.request().query, "since_ns=123");
    EXPECT_EQ(runtime::ops::query_param(p.request().query, "since_ns"), "123");
}

TEST(HttpParser, GarbageRequestLineIsBad)
{
    for (const char* bad : {
             "NOT-HTTP\r\n\r\n",                    // no spaces
             "GET\r\n\r\n",                          // method only
             "GET  HTTP/1.1\r\n\r\n",                // empty target
             "GET / b a d HTTP/1.1\r\n\r\n",         // too many spaces
             "GET /x SPDY/3\r\n\r\n",                // not an HTTP version
             "GET metrics HTTP/1.1\r\n\r\n",         // target missing '/'
             "\r\n\r\n",                             // empty request line
         }) {
        http_parser p;
        EXPECT_EQ(p.feed(bad), http_parser::state::bad) << bad;
    }
}

TEST(HttpParser, OversizedHeaderBlockIsRejected)
{
    http_parser p{128};
    std::string big = "GET /metrics HTTP/1.1\r\n";
    big += "X-Padding: " + std::string(200, 'a') + "\r\n\r\n";
    EXPECT_EQ(p.feed(big), http_parser::state::too_large);
    // Terminal: further feeds cannot resurrect it.
    EXPECT_EQ(p.feed("\r\n\r\n"), http_parser::state::too_large);
}

TEST(HttpParser, QueryParamExtraction)
{
    using runtime::ops::query_param;
    EXPECT_EQ(query_param("a=1&b=2", "a"), "1");
    EXPECT_EQ(query_param("a=1&b=2", "b"), "2");
    EXPECT_EQ(query_param("a=1&b=2", "c"), "");
    EXPECT_EQ(query_param("flag&x=7", "x"), "7");
    EXPECT_EQ(query_param("flag", "flag"), "");
    EXPECT_EQ(query_param("", "a"), "");
    EXPECT_EQ(query_param("aa=9", "a"), "");  // no prefix match
}

TEST(HttpResponse, CarriesLengthAndCloses)
{
    const std::string r =
        runtime::ops::make_response(200, "text/plain", "hello", {"X-Extra: 1"});
    EXPECT_NE(r.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(r.find("Content-Length: 5\r\n"), std::string::npos);
    EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(r.find("X-Extra: 1\r\n"), std::string::npos);
    EXPECT_EQ(r.substr(r.size() - 5), "hello");
}

// ---------------------------------------------------------------------------
// Server integration over loopback.

std::vector<std::uint8_t> test_stream(int w = 64, int h = 64)
{
    j2k::codec_params p;
    p.tile_width = 32;
    p.tile_height = 32;
    return j2k::encode(j2k::make_test_image(w, h, 1), p);
}

struct ops_fixture {
    runtime::decode_service svc;
    runtime::ops::ops_server ops;

    explicit ops_fixture(runtime::service_config sc = make_cfg(),
                         runtime::ops::ops_config oc = {})
        : svc{std::move(sc)}, ops{svc, std::move(oc)}
    {
        ops.start();
    }

    static runtime::service_config make_cfg()
    {
        runtime::service_config sc;
        sc.workers = 2;
        sc.queue_capacity = 64;
        return sc;
    }

    [[nodiscard]] runtime::ops::http_response get(const std::string& target) const
    {
        return runtime::ops::http_get("127.0.0.1", ops.port(), target);
    }
};

TEST(OpsServer, HealthzAndIndexRespond)
{
    ops_fixture f;
    const auto h = f.get("/healthz");
    EXPECT_EQ(h.status, 200);
    EXPECT_EQ(h.body, "ok\n");
    EXPECT_EQ(h.headers.at("connection"), "close");

    const auto idx = f.get("/");
    EXPECT_EQ(idx.status, 200);
    EXPECT_NE(idx.headers.at("content-type").find("text/html"), std::string::npos);
    EXPECT_NE(idx.body.find("/metrics"), std::string::npos);
}

TEST(OpsServer, UnknownPathIs404AndNonGetIs405)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/nope").status, 404);
    EXPECT_EQ(f.get("/metricsx").status, 404);

    // Raw POST through a plain socket (the client helper only speaks GET).
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(f.ops.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const char req[] = "POST /metrics HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof req - 1, 0), 0);
    std::string resp;
    char buf[512];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_NE(resp.find("HTTP/1.1 405"), std::string::npos);

    const auto st = f.ops.stats();
    EXPECT_GE(st.not_found, 2u);
}

TEST(OpsServer, GarbageAndOversizedRequestsGet4xx)
{
    runtime::ops::ops_config oc;
    oc.max_request_bytes = 256;
    ops_fixture f{ops_fixture::make_cfg(), oc};

    auto raw = [&](const std::string& bytes) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(f.ops.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
        EXPECT_GT(::send(fd, bytes.data(), bytes.size(), 0), 0);
        std::string resp;
        char buf[512];
        for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
            resp.append(buf, static_cast<std::size_t>(n));
        ::close(fd);
        return resp;
    };

    EXPECT_NE(raw("complete garbage\r\n\r\n").find("HTTP/1.1 400"), std::string::npos);
    EXPECT_NE(raw("GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n")
                  .find("HTTP/1.1 431"),
              std::string::npos);
    const auto st = f.ops.stats();
    EXPECT_GE(st.bad_requests, 2u);
}

TEST(OpsServer, MetricsExposesPrometheusTextAndJson)
{
    ops_fixture f;
    // Run a little work through the service so counters move.
    const auto cs = test_stream();
    for (int i = 0; i < 3; ++i) (void)f.svc.submit(cs).get();

    const auto text = f.get("/metrics");
    EXPECT_EQ(text.status, 200);
    EXPECT_NE(text.headers.at("content-type").find("text/plain"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_jobs_submitted_total 3"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_build_info{type="), std::string::npos);
    EXPECT_NE(text.body.find("j2k_uptime_seconds "), std::string::npos);
    EXPECT_NE(text.body.find("j2k_pool_threads 2"), std::string::npos);
    EXPECT_NE(text.body.find("j2k_cache_hits_total "), std::string::npos);
    EXPECT_NE(text.body.find("j2k_latency_us{quantile=\"0.99\"} "), std::string::npos);
    EXPECT_NE(text.body.find(
                  "j2k_jobs_shed_total{priority=\"interactive\",kind=\"rejected\"} "),
              std::string::npos);
    // Every non-comment line is `name{labels}? value`: name charset is the
    // Prometheus identifier alphabet (hygiene holds at the boundary).
    std::size_t pos = 0;
    while (pos < text.body.size()) {
        auto eol = text.body.find('\n', pos);
        if (eol == std::string::npos) eol = text.body.size();
        const std::string line = text.body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#') continue;
        const auto name_end = line.find_first_of(" {");
        ASSERT_NE(name_end, std::string::npos) << line;
        for (const char c : line.substr(0, name_end))
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                        c == ':')
                << line;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }

    const auto json = f.get("/metrics?format=json");
    EXPECT_EQ(json.status, 200);
    EXPECT_NE(json.headers.at("content-type").find("application/json"),
              std::string::npos);
    EXPECT_EQ(json.body.rfind("{\"counters\":{", 0), 0u);
    EXPECT_NE(json.body.find("\"uptime_seconds\":"), std::string::npos);
    EXPECT_NE(json.body.find("\"jobs_submitted\":3"), std::string::npos);
    EXPECT_NE(
        json.body.find("\"stage_wall_seconds\":[{\"labels\":{\"stage\":\"entropy\"}"),
        std::string::npos);
    EXPECT_NE(json.body.find("\"ops_scrapes\":"), std::string::npos);
}

TEST(OpsServer, PerCodecFamiliesCarryTheCodecLabel)
{
    ops_fixture f;
    // One job per codec, plus one aimed at an id nothing registered — the
    // split must expose completed work under each backend's name and the
    // unknown id under its decimal spelling.
    (void)f.svc.submit(test_stream()).get();
    const codec::image cube = codec::make_test_image(16, 12, 3, 16, 5);
    const auto ccs = ccsds::encode(cube);
    runtime::decode_options opt;
    opt.codec = ccsds::k_codec_wire_id;
    EXPECT_EQ(f.svc.submit(ccs, opt).get(), cube);
    opt.codec = 99;
    EXPECT_THROW((void)f.svc.submit(ccs, opt).get(), runtime::unsupported_codec);

    const std::string text = f.get("/metrics").body;
    EXPECT_NE(text.find("j2k_codec_jobs_completed_total{codec=\"j2k\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("j2k_codec_jobs_completed_total{codec=\"ccsds123\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_jobs_unsupported_total{codec=\"99\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_jobs_failed_total{codec=\"ccsds123\"} 0"),
              std::string::npos);
    // The per-codec cache split is present (zeroes here: no cache configured).
    EXPECT_NE(text.find("j2k_codec_cache_hits_total{codec=\"ccsds123\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_codec_cache_misses_total{codec=\"j2k\"} 0"),
              std::string::npos);

    // The JSON document carries the same split.
    const std::string json = f.get("/metrics?format=json").body;
    EXPECT_NE(json.find("\"ccsds123\""), std::string::npos);
}

TEST(OpsServer, RollingStageWindowsGoLiveUnderTracedLoad)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    obs::tracer::instance().set_enabled(true);
    runtime::ops::ops_config oc;
    oc.aggregate_interval_ms = 20;
    ops_fixture f{ops_fixture::make_cfg(), oc};
    const auto cs = test_stream(128, 128);
    for (int i = 0; i < 4; ++i) (void)f.svc.submit(cs).get();
    obs::tracer::instance().set_enabled(false);

    const auto text = f.get("/metrics");
    // The decode stages show up with live windowed quantiles.
    EXPECT_NE(text.body.find("j2k_stage_latency_ns{stage=\"tier1\""),
              std::string::npos)
        << text.body;
    EXPECT_NE(text.body.find("quantile=\"0.99\"}"), std::string::npos);
    const auto w =
        f.ops.stages().window("tier1", obs::rolling_stats::k_max_window_s);
    EXPECT_GT(w.count, 0u);
    EXPECT_GT(w.p99_ns, 0.0);
    EXPECT_GE(f.ops.stats().spans_consumed, 1u);
}

// The TSan leg: scrapes race decode submissions, span drains, and each other.
TEST(OpsServer, ConcurrentScrapesUnderLoadAreClean)
{
    obs::tracer::instance().set_enabled(obs::tracing_compiled());
    runtime::ops::ops_config oc;
    oc.aggregate_interval_ms = 5;
    ops_fixture f{ops_fixture::make_cfg(), oc};
    const auto cs = test_stream();
    std::atomic<bool> stop{false};
    std::thread load{[&] {
        while (!stop.load(std::memory_order_acquire)) (void)f.svc.submit(cs).get();
    }};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t)
        scrapers.emplace_back([&f, t] {
            for (int i = 0; i < 15; ++i) {
                const auto r = f.get(t % 2 ? "/metrics?format=json" : "/metrics");
                EXPECT_EQ(r.status, 200);
                EXPECT_FALSE(r.body.empty());
            }
        });
    for (auto& t : scrapers) t.join();
    stop.store(true, std::memory_order_release);
    load.join();
    obs::tracer::instance().set_enabled(false);
    EXPECT_GE(f.ops.stats().scrapes, 45u);
}

TEST(OpsServer, ReadyzFlipsWhenTheServiceDrains)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/readyz").status, 200);
    EXPECT_EQ(f.get("/readyz").body, "ready\n");

    // Submit slow work, then shut down from another thread: readiness must
    // flip to 503 while the drain is still in progress (and stay flipped).
    const auto heavy = test_stream(256, 256);
    for (int i = 0; i < 6; ++i)
        f.svc.submit_async(std::vector<std::uint8_t>{heavy}, {},
                           [](j2k::image&&, std::exception_ptr) {});
    std::thread closer{[&f] { f.svc.shutdown(); }};
    // Poll until the flip is visible; shutdown() blocks until the queue
    // drains, so some of these scrapes overlap the drain window.
    int st = 0;
    for (int i = 0; i < 200 && st != 503; ++i) st = f.get("/readyz").status;
    closer.join();
    EXPECT_EQ(st, 503);
    EXPECT_EQ(f.get("/readyz").body, "draining\n");
    EXPECT_EQ(f.get("/healthz").status, 200);  // liveness is unaffected
}

TEST(OpsServer, CustomReadyProbeWins)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};
    std::atomic<bool> ready{false};
    ops.set_ready_probe([&ready] { return ready.load(); });
    ops.start();
    const auto get = [&](const char* t) {
        return runtime::ops::http_get("127.0.0.1", ops.port(), t);
    };
    EXPECT_EQ(get("/readyz").status, 503);
    ready.store(true);
    EXPECT_EQ(get("/readyz").status, 200);
    ops.stop();
}

TEST(OpsServer, ExtraCountersAreSanitisedIntoTheExposition)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};
    ops.set_extra_counters([] {
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"net_frames_in_total", 12},
            {"weird name!", 3},  // must be sanitised at the boundary
        };
    });
    ops.start();
    const auto r = runtime::ops::http_get("127.0.0.1", ops.port(), "/metrics");
    EXPECT_NE(r.body.find("j2k_net_frames_in_total 12"), std::string::npos);
    EXPECT_NE(r.body.find("j2k_weird_name_ 3"), std::string::npos);
    EXPECT_EQ(r.body.find("weird name!"), std::string::npos);
    const auto j = runtime::ops::http_get("127.0.0.1", ops.port(),
                                          "/metrics?format=json");
    EXPECT_NE(j.body.find("\"weird name!\":3"), std::string::npos);  // JSON keeps it
    ops.stop();
}

TEST(OpsServer, TraceTailReturnsDisjointConcatenableBatches)
{
    if (!obs::tracing_compiled()) GTEST_SKIP() << "built with OBS_TRACING=OFF";
    ops_fixture f;
    auto& tr = obs::tracer::instance();
    tr.set_enabled(true);
    const auto cs = test_stream();
    (void)f.svc.submit(cs).get();

    const auto c1 = f.get("/trace?since_ns=0");
    ASSERT_EQ(c1.status, 200);
    ASSERT_TRUE(c1.headers.count("x-trace-next-since-ns"));
    const std::string cursor = c1.headers.at("x-trace-next-since-ns");
    EXPECT_GT(std::strtoull(cursor.c_str(), nullptr, 10), 0u);
    EXPECT_EQ(c1.body.substr(0, 2), "[\n");  // first chunk opens the array

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (void)f.svc.submit(cs).get();
    const auto c2 = f.get("/trace?since_ns=" + cursor);
    tr.set_enabled(false);
    ASSERT_EQ(c2.status, 200);
    EXPECT_NE(c2.body.substr(0, 2), "[\n");  // later chunks are bare elements

    // Disjoint: every "ts" in chunk 2 is at or after the cursor.  (Chunk
    // timestamps are microseconds; the cursor is nanoseconds.)
    const double cursor_us = std::strtod(cursor.c_str(), nullptr) / 1000.0;
    std::size_t pos = 0;
    std::size_t checked = 0;
    while ((pos = c2.body.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        const double ts_us = std::strtod(c2.body.c_str() + pos, nullptr);
        EXPECT_GE(ts_us, cursor_us - 0.0015);  // one-ns rounding slack
        ++checked;
    }
    EXPECT_GT(checked, 0u);

    // Concatenated chunks + closing bracket form one parseable document —
    // the in-test validation that Perfetto's tolerant loader will accept it.
    std::string concat = c1.body + c2.body;
    const auto comma = concat.find_last_of(',');
    ASSERT_NE(comma, std::string::npos);
    concat = concat.substr(0, comma) + "\n]";
    // Light structural validation: balanced brackets outside strings.
    long depth = 0;
    bool in_str = false, esc = false;
    for (const char ch : concat) {
        if (esc) { esc = false; continue; }
        if (in_str) {
            if (ch == '\\') esc = true;
            else if (ch == '"') in_str = false;
            continue;
        }
        if (ch == '"') in_str = true;
        else if (ch == '[' || ch == '{') ++depth;
        else if (ch == ']' || ch == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

TEST(OpsServer, FullTraceDocumentIsStrictJson)
{
    ops_fixture f;
    const auto r = f.get("/trace");
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(r.body.front(), '{');
    EXPECT_EQ(r.body.back(), '\n');
    EXPECT_EQ(f.get("/trace?since_ns=bogus").status, 400);
}

TEST(OpsServer, MetricsTextRenderableWithoutSockets)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};  // never started: render directly
    const std::string text = ops.metrics_text();
    EXPECT_NE(text.find("j2k_jobs_submitted_total 0"), std::string::npos);
    const std::string json = ops.metrics_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(OpsServer, LabeledExtraCountersExposeCleanlyAndMalformedOnesAreSanitised)
{
    runtime::decode_service svc{ops_fixture::make_cfg()};
    runtime::ops::ops_server ops{svc};  // render directly, no socket needed
    ops.set_extra_counters([] {
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"net_frames_in_total", 12},
            {"net_frames_in_total{shard=\"0\"}", 7},
            {"net_frames_in_total{shard=\"1\",zone=\"a\"}", 5},
            // Malformed blocks must degrade to whole-name sanitisation,
            // never reach exposition raw.
            {"weird metric{shard=0}", 3},           // unquoted value
            {"trailing{shard=\"2\",}", 2},          // trailing comma
            {"unterminated{shard=\"3", 1},          // no closing brace
        };
    });
    const std::string text = ops.metrics_text();
    EXPECT_NE(text.find("j2k_net_frames_in_total 12\n"), std::string::npos);
    EXPECT_NE(text.find("j2k_net_frames_in_total{shard=\"0\"} 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("j2k_net_frames_in_total{shard=\"1\",zone=\"a\"} 5\n"),
              std::string::npos);
    EXPECT_EQ(text.find("weird metric"), std::string::npos);
    EXPECT_EQ(text.find("{shard=0}"), std::string::npos);
    EXPECT_EQ(text.find("{shard=\"2\",}"), std::string::npos);
    EXPECT_EQ(text.find("{shard=\"3"), std::string::npos);
    // The sanitised fallbacks still carry the value.
    EXPECT_NE(text.find("j2k_weird_metric_shard_0_ 3\n"), std::string::npos);
}

TEST(OpsServer, FdExhaustionShedsConnectionsAndCountsAcceptsFailed)
{
    ops_fixture f;
    EXPECT_EQ(f.get("/healthz").status, 200);
    EXPECT_EQ(f.ops.stats().accepts_failed, 0u);
    // The server closes the finished /healthz connection on its own loop;
    // let that fd actually free before taking a census of the table.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Clamp the fd table just above current usage and fill every remaining
    // slot, then free exactly one for a client socket: the ops listener's
    // accept() hits EMFILE and must shed through its reserve fd (clean EOF)
    // rather than hot-spin on the level-triggered listener.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    {
        int maxfd = 2;
        DIR* d = ::opendir("/proc/self/fd");
        ASSERT_NE(d, nullptr);
        while (const dirent* e = ::readdir(d)) {
            const int fd = std::atoi(e->d_name);
            if (fd > maxfd) maxfd = fd;
        }
        ::closedir(d);
        rlimit lim = saved;
        lim.rlim_cur = static_cast<rlim_t>(maxfd + 8);
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    std::vector<int> fillers;
    for (;;) {
        const int fd = ::open("/dev/null", O_RDONLY);
        if (fd < 0) break;
        fillers.push_back(fd);
    }
    ASSERT_FALSE(fillers.empty());
    ::close(fillers.back());
    fillers.pop_back();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(f.ops.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    char b;
    EXPECT_EQ(::recv(fd, &b, 1, 0), 0);  // shed: accepted then closed
    ::close(fd);
    for (const int g : fillers) ::close(g);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    EXPECT_GE(f.ops.stats().accepts_failed, 1u);
    // The plane serves normally once the pressure is gone, and the failure
    // shows up in its own exposition.
    const auto m = f.get("/metrics");
    EXPECT_EQ(m.status, 200);
    EXPECT_NE(m.body.find("j2k_ops_accepts_failed_total "), std::string::npos);
}

/// (sample name, sorted label keys) for every sample line of a Prometheus
/// text document.  Values and label values are ignored: the golden list pins
/// the exposition's shape, not its numbers.
std::set<std::pair<std::string, std::string>> sample_families(const std::string& text)
{
    std::set<std::pair<std::string, std::string>> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#') continue;
        const std::size_t name_end = line.find_first_of(" {");
        std::vector<std::string> keys;
        if (line[name_end] == '{') {
            std::size_t i = name_end + 1;
            while (line[i] != '}') {
                const std::size_t eq = line.find('=', i);
                keys.push_back(line.substr(i, eq - i));
                i = line.find('"', eq + 2) + 1;  // past the closing quote
                if (line[i] == ',') ++i;
            }
        }
        std::sort(keys.begin(), keys.end());
        std::string joined;
        for (const std::string& k : keys) joined += (joined.empty() ? "" : ",") + k;
        out.emplace(line.substr(0, name_end), joined);
    }
    return out;
}

// The exposition's compatibility contract: every (sample name, label keys)
// pair a dashboard may query is listed here.  A family may be added (append
// it), never silently renamed or relabelled.  The rolling stage families
// need spans, so they are only expected when tracing is compiled in.
TEST(OpsServer, GoldenFamilyListSurvives)
{
    const bool traced = obs::tracing_compiled();
    if (traced) obs::tracer::instance().set_enabled(true);
    runtime::service_config sc = ops_fixture::make_cfg();
    sc.cache_bytes = 8u << 20;
    runtime::decode_service svc{sc};
    runtime::ops::ops_server ops{svc};
    ops.set_extra_counters([] {
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"net_frames_in_total", 12},
            {"net_frames_in_total{shard=\"0\"}", 7},
            {"weird metric{shard=0}", 3},
        };
    });
    (void)svc.submit(test_stream()).get();
    const codec::image cube = codec::make_test_image(16, 12, 3, 16, 5);
    runtime::decode_options opt;
    opt.codec = ccsds::k_codec_wire_id;
    (void)svc.submit(ccsds::encode(cube), opt).get();
    opt.codec = 99;
    EXPECT_THROW((void)svc.submit(test_stream(), opt).get(), runtime::unsupported_codec);
    if (traced) obs::tracer::instance().set_enabled(false);

    std::set<std::pair<std::string, std::string>> expected = {
        {"j2k_build_info", "compiler,type"},
        {"j2k_cache_bytes", ""},
        {"j2k_cache_collapses_total", ""},
        {"j2k_cache_entries", ""},
        {"j2k_cache_evictions_total", ""},
        {"j2k_cache_hits_total", ""},
        {"j2k_cache_misses_total", ""},
        {"j2k_cache_pinned_bytes", ""},
        {"j2k_cache_session_entries", ""},
        {"j2k_cache_session_resumes_total", ""},
        {"j2k_codec_cache_hits_total", "codec"},
        {"j2k_codec_cache_misses_total", "codec"},
        {"j2k_codec_jobs_completed_total", "codec"},
        {"j2k_codec_jobs_failed_total", "codec"},
        {"j2k_codec_jobs_unsupported_total", "codec"},
        {"j2k_jobs_batched_total", ""},
        {"j2k_jobs_completed_total", ""},
        {"j2k_jobs_dropped_total", ""},
        {"j2k_jobs_failed_total", ""},
        {"j2k_jobs_progressive_total", ""},
        {"j2k_jobs_promoted_total", ""},
        {"j2k_jobs_rejected_total", ""},
        {"j2k_jobs_shed_total", "kind,priority"},
        {"j2k_jobs_submitted_total", ""},
        {"j2k_kernel_dispatch", "isa"},
        {"j2k_latency_us_count", ""},
        {"j2k_latency_us_max", ""},
        {"j2k_latency_us_sum", ""},
        {"j2k_latency_us", "quantile"},
        {"j2k_layers_emitted_total", ""},
        {"j2k_net_frames_in_total", "shard"},
        {"j2k_net_frames_in_total", ""},
        {"j2k_ops_accepts_failed_total", ""},
        {"j2k_ops_bad_requests_total", ""},
        {"j2k_ops_not_found_total", ""},
        {"j2k_ops_requests_total", ""},
        {"j2k_ops_scrapes_total", ""},
        {"j2k_ops_spans_consumed_total", ""},
        {"j2k_ops_trace_requests_total", ""},
        {"j2k_pool_submissions_total", ""},
        {"j2k_pool_threads", ""},
        {"j2k_priority_latency_us_count", "priority"},
        {"j2k_priority_latency_us", "priority,quantile"},
        {"j2k_progressive_active_high_water", ""},
        {"j2k_progressive_cancelled_total", ""},
        {"j2k_queue_depth_high_water", ""},
        {"j2k_spans_open", ""},
        {"j2k_spans_recorded_total", ""},
        {"j2k_spans_unmatched_ends_total", ""},
        {"j2k_stage_latency_ns", "quantile,stage,window"},
        {"j2k_stage_rate_per_second", "stage,window"},
        {"j2k_stage_wall_seconds_total", "stage"},
        {"j2k_stage_window_count", "stage,window"},
        {"j2k_t1_segment_bytes_total", ""},
        {"j2k_tasks_stolen_total", ""},
        {"j2k_tiles_decoded_total", ""},
        {"j2k_trace_events_overwritten_total", ""},
        {"j2k_trace_events_pushed_total", ""},
        {"j2k_trace_threads", ""},
        {"j2k_tracing_armed", ""},
        {"j2k_uptime_seconds", ""},
        {"j2k_weird_metric_shard_0_", ""},
        // Added by the generic renderer: gauges expose their current value
        // next to the high-water mark, every summary has _sum and _max.
        {"j2k_priority_latency_us_max", "priority"},
        {"j2k_priority_latency_us_sum", "priority"},
        {"j2k_progressive_active", ""},
        {"j2k_queue_depth", ""},
        {"j2k_spans_dropped_stages_total", ""},
    };
    if (!traced) {
        for (const char* f : {"j2k_stage_latency_ns", "j2k_stage_rate_per_second",
                              "j2k_stage_window_count"})
            std::erase_if(expected, [f](const auto& e) { return e.first == f; });
    }
    const std::string text = ops.metrics_text();
    const auto got = sample_families(text);
    for (const auto& e : expected)
        EXPECT_TRUE(got.count(e)) << "missing " << e.first << "{" << e.second << "}";
    for (const auto& g : got)
        EXPECT_TRUE(expected.count(g))
            << "unlisted " << g.first << "{" << g.second << "}";
}

}  // namespace
