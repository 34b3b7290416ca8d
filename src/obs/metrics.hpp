// obs/metrics.hpp — generic metrics: counters, gauges, log2 histograms, and
// a registry of labelled families rendered to Prometheus, JSON and text.
//
// Everything on the update path is a relaxed atomic — recording is a handful
// of uncontended RMWs, cheap enough to leave enabled in production.  The
// registry hands out stable references (instruments are never deallocated
// while the registry lives), so hot paths bind a reference once and never
// touch the name map again.
//
// `log2_histogram` is the service's latency histogram promoted to a general
// facility: bucket b counts values with bit_width b, quantiles interpolate
// linearly inside the hit bucket, bounding the error at ~half a bucket width.
//
// A metric is declared once, in a registry: as an instrument the registry
// owns, or as a collector reading a value another object owns.  The three
// renderers walk the collected families generically.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace obs {

/// Sanitise a metric name for Prometheus text exposition, once, at the
/// boundary: every character outside [a-zA-Z0-9_:] becomes '_', and a name
/// whose first character may not lead a Prometheus identifier (digit, or
/// empty input) gains a '_' prefix.  Registry names are free-form; anything
/// that leaves the process over /metrics goes through here.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// JSON string-escape (quotes added) — exposition helpers share this so a
/// hostile instrument name can never break the emitted JSON.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Monotonically increasing event count.
class counter {
public:
    void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, in-flight jobs, ...) with a high-water
/// mark maintained across every set/add.
class gauge {
public:
    void set(std::int64_t v) noexcept
    {
        v_.store(v, std::memory_order_relaxed);
        raise_max(v);
    }
    void add(std::int64_t d) noexcept
    {
        raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
    }
    [[nodiscard]] std::int64_t value() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t max() const noexcept
    {
        return max_.load(std::memory_order_relaxed);
    }

private:
    void raise_max(std::int64_t v) noexcept
    {
        std::int64_t cur = max_.load(std::memory_order_relaxed);
        while (cur < v && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                                      std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> v_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Log2-bucketed histogram of non-negative integer samples.
class log2_histogram {
public:
    static constexpr int k_buckets = 64;  ///< bucket b counts values with bit_width b

    void observe(std::uint64_t v) noexcept;

    struct data {
        std::array<std::uint64_t, k_buckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;

        /// Approximate quantile, q clamped to [0, 1].  Returns 0 for an empty
        /// histogram; never exceeds the largest observed sample.
        [[nodiscard]] double quantile(double q) const noexcept;
        [[nodiscard]] double mean() const noexcept
        {
            return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
        }
    };

    [[nodiscard]] data snapshot() const noexcept;

private:
    std::array<std::atomic<std::uint64_t>, k_buckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/// Label pairs in declaration order; keys must be Prometheus label names,
/// values are free text (each renderer escapes them).
using label_set = std::vector<std::pair<std::string, std::string>>;

/// How a family is rendered.  Prometheus names follow from it: a counter
/// gains `_total`, a gauge that tracks a high-water mark adds a
/// `<name>_high_water` family, a histogram renders as a summary (quantiles
/// 0.5/0.95/0.99, `_sum`, `_count`) plus a `<name>_max` gauge, and an untyped
/// family is exposed under its name as given.
enum class metric_type { counter, gauge, histogram, untyped };

/// One labelled value of a collected family.
struct sample {
    label_set labels;
    double value = 0.0;                ///< counter, gauge, untyped
    std::optional<double> high_water;  ///< gauges that track one
    std::shared_ptr<const log2_histogram::data> hist;  ///< histograms
};

/// A metric family at collection time: every sample sharing one name.
struct family {
    std::string name;
    metric_type type = metric_type::untyped;
    std::vector<sample> samples;
};

/// What a collector writes its samples into (see registry::add_collector).
class sample_sink {
public:
    /// One sample of `family`.  A sample of another type than the family's,
    /// or with a repeated label set, is dropped: the first declaration wins.
    void add(std::string_view family, double value, label_set labels = {},
             std::optional<double> high_water = std::nullopt);

private:
    friend class registry;
    explicit sample_sink(std::vector<family>& out) : out_{out} {}
    void push(std::string_view family, metric_type type, sample&& s);

    std::vector<family>& out_;
    metric_type type_ = metric_type::untyped;  ///< of the collector now running
};

/// Registry of labelled metric families.  get_* creates an instrument on
/// first use and returns a reference that stays valid for the registry's
/// lifetime, so hot paths bind once and never touch the name map again.
class registry {
public:
    /// Reads values owned elsewhere; runs on every collect(), outside the
    /// registry lock.
    using collector = std::function<void(sample_sink&)>;

    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    counter& get_counter(const std::string& name, const label_set& labels = {});
    gauge& get_gauge(const std::string& name, const label_set& labels = {});
    log2_histogram& get_histogram(const std::string& name, const label_set& labels = {});

    /// Declare the families `fn` reports; every sample it adds has `type`.
    void add_collector(metric_type type, collector fn);

    /// Every family, instruments first, in declaration order.
    [[nodiscard]] std::vector<family> collect() const;

    /// render_text / render_json over collect().
    [[nodiscard]] std::string expose_text() const;
    [[nodiscard]] std::string expose_json() const;

private:
    struct instrument {
        std::string name;
        label_set labels;
        metric_type type;
        std::unique_ptr<counter> c;
        std::unique_ptr<gauge> g;
        std::unique_ptr<log2_histogram> h;
    };
    instrument& get(const std::string& name, const label_set& labels, metric_type type);

    mutable std::mutex m_;
    std::deque<instrument> instruments_;  ///< deque: references survive growth
    std::map<std::string, std::size_t> index_;  ///< "name{labels}" → instruments_ slot
    std::vector<std::pair<metric_type, collector>> collectors_;
};

/// Prometheus text exposition (0.0.4): every family name gets `prefix_`
/// (none when empty) and is sanitised with prometheus_name; each family has
/// exactly one `# TYPE` line and contiguous samples.  When two families
/// sanitise to the same name, the first one wins.
[[nodiscard]] std::string render_prometheus(const std::vector<family>& families,
                                            std::string_view prefix);
/// One JSON object keyed by type, then by (unsanitised) family name:
/// {"counters":{"jobs":3,"shed":[{"labels":{"kind":"drop"},"value":1}]},
///  "gauges":{"depth":{"value":2,"max":9}},"histograms":{"lat":{"count":..}},
///  "untyped":{...}}.  A family with one unlabelled sample is a bare value;
/// any other family is an array of samples carrying their labels.
[[nodiscard]] std::string render_json(const std::vector<family>& families);
/// One `name{labels} value` line per sample (gauges add `name_max`,
/// histograms expose _count/_sum/_mean/_p50/_p95/_p99/_max).
[[nodiscard]] std::string render_text(const std::vector<family>& families);

}  // namespace obs
