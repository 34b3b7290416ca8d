// obs metrics: counters, gauges, the registry, and the log2 histogram —
// including the quantile edge cases (empty, q=0/1, single sample, in-bucket
// interpolation) that the service latency percentiles depend on.
#include <obs/metrics.hpp>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace {

TEST(Counter, AddAndRead)
{
    obs::counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWater)
{
    obs::gauge g;
    g.set(5);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.max(), 5);
    g.add(10);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.max(), 12);
    g.add(-12);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.max(), 12);
}

TEST(Registry, HandsOutStableReferences)
{
    obs::registry r;
    obs::counter& a = r.get_counter("jobs");
    obs::counter& b = r.get_counter("jobs");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(r.get_counter("jobs").value(), 7u);
    EXPECT_NE(&r.get_counter("jobs"), &r.get_counter("tiles"));
}

TEST(Registry, TextExposition)
{
    obs::registry r;
    r.get_counter("requests").add(3);
    r.get_gauge("depth").set(9);
    r.get_histogram("lat").observe(100);
    const std::string text = r.expose_text();
    EXPECT_NE(text.find("requests 3\n"), std::string::npos);
    EXPECT_NE(text.find("depth 9\n"), std::string::npos);
    EXPECT_NE(text.find("depth_max 9\n"), std::string::npos);
    EXPECT_NE(text.find("lat_count 1\n"), std::string::npos);
    EXPECT_NE(text.find("lat_max 100\n"), std::string::npos);
}

TEST(Registry, JsonExposition)
{
    obs::registry r;
    r.get_counter("requests").add(3);
    r.get_gauge("depth").set(9);
    r.get_histogram("lat").observe(100);
    const std::string json = r.expose_json();
    EXPECT_NE(json.find("\"requests\":3"), std::string::npos);
    EXPECT_NE(json.find("\"depth\":{\"value\":9,\"max\":9}"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Registry, RenderersApplyTheFamilyNamingRules)
{
    obs::registry r;
    r.get_counter("jobs").add(3);
    r.get_counter("shed", {{"kind", "drop"}}).add(1);
    r.get_gauge("depth").set(4);
    r.get_histogram("lat").observe(100);
    r.add_collector(obs::metric_type::untyped, [](obs::sample_sink& out) {
        out.add("raw_total", 7);
        out.add("raw_total", 8);  // repeated label set: dropped
        out.add("jobs", 9);       // already a counter family: dropped
    });
    const auto families = r.collect();
    const std::string p = obs::render_prometheus(families, "x");
    EXPECT_NE(p.find("# TYPE x_jobs_total counter\nx_jobs_total 3\n"), std::string::npos);
    EXPECT_NE(p.find("# TYPE x_shed_total counter\nx_shed_total{kind=\"drop\"} 1\n"),
              std::string::npos);
    EXPECT_NE(p.find("# TYPE x_depth gauge\nx_depth 4\n"
                     "# TYPE x_depth_high_water gauge\nx_depth_high_water 4\n"),
              std::string::npos);
    EXPECT_NE(p.find("# TYPE x_lat summary\nx_lat{quantile=\"0.5\"} "),
              std::string::npos);
    EXPECT_NE(p.find("x_lat_sum 100\nx_lat_count 1\n"
                     "# TYPE x_lat_max gauge\nx_lat_max 100\n"),
              std::string::npos);
    EXPECT_NE(p.find("# TYPE x_raw_total untyped\nx_raw_total 7\n"), std::string::npos);
    EXPECT_EQ(p.find(" 8\n"), std::string::npos);
    EXPECT_EQ(p.find(" 9\n"), std::string::npos);
    EXPECT_EQ(p.find("# TYPE x_jobs_total"), p.rfind("# TYPE x_jobs_total"));
    // No prefix: the names are the declared ones.
    const std::string bare = obs::render_prometheus(families, "");
    EXPECT_EQ(bare.rfind("# TYPE jobs_total counter\n", 0), 0u);

    const std::string json = obs::render_json(families);
    EXPECT_NE(json.find("\"shed\":[{\"labels\":{\"kind\":\"drop\"},\"value\":1}]"),
              std::string::npos);
    EXPECT_NE(json.find("\"untyped\":{\"raw_total\":7}"), std::string::npos);
    EXPECT_NE(obs::render_text(families).find("shed{kind=\"drop\"} 1\n"),
              std::string::npos);
}

TEST(Registry, SameNameAnotherTypeGetsAPrivateInstrument)
{
    obs::registry r;
    r.get_counter("x").add(2);
    r.get_gauge("x").set(5);  // a distinct, unexposed instrument, never a crash
    EXPECT_EQ(r.get_gauge("x").value(), 5);
    EXPECT_EQ(r.get_counter("x").value(), 2u);
    const std::string json = r.expose_json();
    EXPECT_NE(json.find("\"counters\":{\"x\":2}"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Name hygiene at the exposition boundary (registry names are free-form).

TEST(NameHygiene, PrometheusNameSanitisesOnce)
{
    EXPECT_EQ(obs::prometheus_name("jobs_submitted"), "jobs_submitted");
    EXPECT_EQ(obs::prometheus_name("ns:sub_system"), "ns:sub_system");
    EXPECT_EQ(obs::prometheus_name("latency.p99-us"), "latency_p99_us");
    EXPECT_EQ(obs::prometheus_name("queue depth"), "queue_depth");
    EXPECT_EQ(obs::prometheus_name("naïve"), "na__ve");  // multibyte → per byte
    // A leading digit may not start a Prometheus identifier.
    EXPECT_EQ(obs::prometheus_name("2xx_responses"), "_2xx_responses");
    EXPECT_EQ(obs::prometheus_name(""), "_");
    EXPECT_EQ(obs::prometheus_name("\"evil\nname\\"), "_evil_name_");
}

TEST(NameHygiene, JsonQuoteEscapesHostileStrings)
{
    EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(obs::json_quote("with \"quotes\""), "\"with \\\"quotes\\\"\"");
    EXPECT_EQ(obs::json_quote("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(obs::json_quote(std::string_view{"tab\tnl\n", 7}), "\"tab\\u0009nl\\u000a\"");
}

TEST(NameHygiene, HostileRegistryNamesCannotBreakJsonExposition)
{
    obs::registry r;
    r.get_counter("ok_name").add(1);
    r.get_counter("quote\"inject\":9999,\"x").add(2);
    r.get_gauge("line\nbreak").set(3);
    r.get_histogram("back\\slash").observe(4);
    const std::string json = r.expose_json();
    // The quote is escaped, so the injected ":9999" stays inside the string.
    EXPECT_NE(json.find("quote\\\"inject\\\":9999,\\\"x"), std::string::npos);
    EXPECT_NE(json.find("line\\u000abreak"), std::string::npos);
    EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
    // No raw control characters survive into the document.
    for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(Histogram, EmptyQuantileIsZero)
{
    const obs::log2_histogram h;
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(d.quantile(0.0), 0.0);
    EXPECT_EQ(d.quantile(0.5), 0.0);
    EXPECT_EQ(d.quantile(1.0), 0.0);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(Histogram, QuantileIsClampedToValidRange)
{
    obs::log2_histogram h;
    h.observe(100);
    const auto d = h.snapshot();
    EXPECT_EQ(d.quantile(-3.0), d.quantile(0.0));
    EXPECT_EQ(d.quantile(42.0), d.quantile(1.0));
}

TEST(Histogram, SingleSampleNeverExceedsObservedMax)
{
    obs::log2_histogram h;
    h.observe(5);  // bucket [4, 8)
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, 1u);
    EXPECT_EQ(d.max, 5u);
    // q=1 would interpolate to the bucket's open upper bound (8) without the
    // clamp; the estimate must never exceed the largest real sample.
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 5.0);
    EXPECT_LE(d.quantile(0.5), 5.0);
    EXPECT_GE(d.quantile(0.0), 4.0);  // bucket lower bound
}

TEST(Histogram, ZeroValuedSamples)
{
    obs::log2_histogram h;
    for (int i = 0; i < 10; ++i) h.observe(0);
    const auto d = h.snapshot();
    EXPECT_EQ(d.max, 0u);
    EXPECT_EQ(d.quantile(1.0), 0.0);
    EXPECT_EQ(d.quantile(0.5), 0.0);
}

TEST(Histogram, InterpolatesLinearlyWithinABucket)
{
    obs::log2_histogram h;
    for (int i = 0; i < 10; ++i) h.observe(2);     // bucket [2, 4)
    for (int i = 0; i < 10; ++i) h.observe(1000);  // bucket [512, 1024)
    const auto d = h.snapshot();
    // p25 → 5th of 20 samples → halfway through the first bucket.
    EXPECT_DOUBLE_EQ(d.quantile(0.25), 3.0);
    // p75 → 15th → halfway through the second bucket.
    EXPECT_DOUBLE_EQ(d.quantile(0.75), 768.0);
    // q=0 lands at the first occupied bucket's lower bound.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 2.0);
    // q=1 clamps to the real maximum, not the bucket bound.
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);
}

TEST(Histogram, MeanAndMaxAreExact)
{
    obs::log2_histogram h;
    h.observe(10);
    h.observe(20);
    h.observe(60);
    const auto d = h.snapshot();
    EXPECT_DOUBLE_EQ(d.mean(), 30.0);
    EXPECT_EQ(d.max, 60u);
    EXPECT_EQ(d.sum, 90u);
}

TEST(Histogram, ConcurrentObserversStayConsistent)
{
    obs::log2_histogram h;
    constexpr int k_threads = 4;
    constexpr int k_per_thread = 10000;
    std::vector<std::thread> ts;
    for (int t = 0; t < k_threads; ++t)
        ts.emplace_back([&h] {
            for (int i = 0; i < k_per_thread; ++i)
                h.observe(static_cast<std::uint64_t>(i % 1000));
        });
    for (auto& t : ts) t.join();
    const auto d = h.snapshot();
    EXPECT_EQ(d.count, static_cast<std::uint64_t>(k_threads) * k_per_thread);
    EXPECT_EQ(d.max, 999u);
    std::uint64_t total = 0;
    for (const auto b : d.buckets) total += b;
    EXPECT_EQ(total, d.count);
}

}  // namespace
