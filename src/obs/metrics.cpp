#include "metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>

namespace obs {

std::string prometheus_name(std::string_view name)
{
    auto ok = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == ':';
    };
    std::string out;
    out.reserve(name.size() + 1);
    if (name.empty() || (name.front() >= '0' && name.front() <= '9')) out += '_';
    for (const char c : name) out += ok(c) ? c : '_';
    return out;
}

std::string json_quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

namespace {

int bucket_of(std::uint64_t v) noexcept
{
    const int b = static_cast<int>(std::bit_width(v));  // 0 for v == 0
    return b >= log2_histogram::k_buckets ? log2_histogram::k_buckets - 1 : b;
}

void fetch_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                                  std::memory_order_relaxed)) {
    }
}

}  // namespace

void log2_histogram::observe(std::uint64_t v) noexcept
{
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    fetch_max(max_, v);
}

log2_histogram::data log2_histogram::snapshot() const noexcept
{
    data d;
    for (int b = 0; b < k_buckets; ++b)
        d.buckets[static_cast<std::size_t>(b)] =
            buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    d.count = count_.load(std::memory_order_relaxed);
    d.sum = sum_.load(std::memory_order_relaxed);
    d.max = max_.load(std::memory_order_relaxed);
    return d;
}

double log2_histogram::data::quantile(double q) const noexcept
{
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (int b = 0; b < k_buckets; ++b) {
        const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        if (static_cast<double>(cum + n) >= target) {
            // Bucket b holds values in [lo, hi); interpolate linearly.  The
            // interpolated point can overshoot the real extremum (a single
            // sample lands mid-bucket, q=1 lands at the open upper bound), so
            // clamp to the observed maximum.
            const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
            const double hi = static_cast<double>(1ull << b);
            const double frac = (target - static_cast<double>(cum)) / static_cast<double>(n);
            const double est = lo + (hi - lo) * frac;
            const double cap = static_cast<double>(max);
            return est < cap ? est : cap;
        }
        cum += n;
    }
    return static_cast<double>(max);
}

void sample_sink::push(std::string_view name, metric_type type, sample&& s)
{
    // Collectors add family by family, so the newest family is the usual hit.
    auto it = std::find_if(out_.rbegin(), out_.rend(),
                           [&](const family& f) { return f.name == name; });
    family& f =
        it != out_.rend() ? *it : out_.emplace_back(family{std::string{name}, type, {}});
    const auto same = [&](const sample& o) { return o.labels == s.labels; };
    if (f.type == type && std::none_of(f.samples.begin(), f.samples.end(), same))
        f.samples.push_back(std::move(s));
}

void sample_sink::add(std::string_view name, double value, label_set labels,
                      std::optional<double> high_water)
{
    push(name, type_, sample{std::move(labels), value, high_water, {}});
}

registry::instrument& registry::get(const std::string& name, const label_set& labels,
                                    metric_type type)
{
    std::string key = name + static_cast<char>(type);  // another type: another instrument
    for (const auto& [k, v] : labels) key += '\0' + k + '\0' + v;
    std::lock_guard lk{m_};
    if (const auto it = index_.find(key); it != index_.end())
        return instruments_[it->second];
    index_.emplace(std::move(key), instruments_.size());
    instrument& in =
        instruments_.emplace_back(instrument{name, labels, type, {}, {}, {}});
    switch (type) {
    case metric_type::counter: in.c = std::make_unique<counter>(); break;
    case metric_type::gauge: in.g = std::make_unique<gauge>(); break;
    default: in.h = std::make_unique<log2_histogram>(); break;
    }
    return in;
}

counter& registry::get_counter(const std::string& name, const label_set& labels)
{
    return *get(name, labels, metric_type::counter).c;
}

gauge& registry::get_gauge(const std::string& name, const label_set& labels)
{
    return *get(name, labels, metric_type::gauge).g;
}

log2_histogram& registry::get_histogram(const std::string& name, const label_set& labels)
{
    return *get(name, labels, metric_type::histogram).h;
}

void registry::add_collector(metric_type type, collector fn)
{
    std::lock_guard lk{m_};
    collectors_.emplace_back(type, std::move(fn));
}

std::vector<family> registry::collect() const
{
    std::vector<family> out;
    sample_sink sink{out};
    std::vector<std::pair<metric_type, collector>> collectors;
    {
        std::lock_guard lk{m_};
        for (const instrument& in : instruments_) {
            sample s{in.labels, 0.0, std::nullopt, {}};
            if (in.c) s.value = static_cast<double>(in.c->value());
            if (in.g) {
                s.value = static_cast<double>(in.g->value());
                s.high_water = static_cast<double>(in.g->max());
            }
            if (in.h) s.hist = std::make_shared<log2_histogram::data>(in.h->snapshot());
            sink.push(in.name, in.type, std::move(s));
        }
        collectors = collectors_;
    }
    // Collectors call into the objects that own the values (and take their
    // locks); running them outside m_ keeps the registry out of that order.
    for (const auto& [type, fn] : collectors) {
        sink.type_ = type;
        fn(sink);
    }
    return out;
}

std::string registry::expose_text() const { return render_text(collect()); }

std::string registry::expose_json() const { return render_json(collect()); }

namespace {

/// Integral values print as integers, everything else with 10 significant
/// digits.  JSON has no spelling for NaN or infinity, so it gets null.
void append_number(std::string& out, double v, bool json)
{
    if (!std::isfinite(v)) {
        out += json ? "null" : std::isnan(v) ? "NaN" : v > 0 ? "+Inf" : "-Inf";
        return;
    }
    char b[32];
    char* const e = b + sizeof b;
    const auto r = v == std::floor(v) && std::fabs(v) < 1e15
                       ? std::to_chars(b, e, static_cast<long long>(v))
                       : std::to_chars(b, e, v, std::chars_format::general, 10);
    out.append(b, r.ptr);
}

/// `name{k="v",...} value\n`, label values escaped for Prometheus
/// (backslash, quote, newline).
void append_line(std::string& out, const std::string& name, const label_set& labels,
                 double value)
{
    out += name;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        out.append(i ? "," : "{").append(labels[i].first).append("=\"");
        for (const char c : labels[i].second) {
            if (c == '\\' || c == '"' || c == '\n') out += '\\';
            out += c == '\n' ? 'n' : c;
        }
        out += i + 1 == labels.size() ? "\"}" : "\"";
    }
    out += ' ';
    append_number(out, value, false);
    out += '\n';
}

}  // namespace

std::string render_prometheus(const std::vector<family>& families,
                              std::string_view prefix)
{
    using value_fn = std::optional<double> (*)(const sample&);
    const value_fn value = [](const sample& s) { return std::optional<double>{s.value}; };
    const std::string pre = prefix.empty() ? "" : prometheus_name(prefix) + "_";
    std::set<std::string> used;  // a name taken by an earlier family stays taken
    std::string out;
    for (const family& f : families) {
        const std::string base = pre + prometheus_name(f.name);
        // One `# TYPE` line, then every sample that has a value under `name`.
        auto emit = [&](const std::string& name, const char* type, value_fn value_of) {
            if (std::none_of(f.samples.begin(), f.samples.end(),
                             [&](const sample& s) { return value_of(s).has_value(); }) ||
                !used.insert(name).second)
                return;
            out += "# TYPE " + name + ' ' + type + '\n';
            for (const sample& s : f.samples)
                if (const auto v = value_of(s)) append_line(out, name, s.labels, *v);
        };
        switch (f.type) {
        case metric_type::counter: emit(base + "_total", "counter", value); break;
        case metric_type::untyped: emit(base, "untyped", value); break;
        case metric_type::gauge:
            emit(base, "gauge", value);
            emit(base + "_high_water", "gauge",
                 [](const sample& s) { return s.high_water; });
            break;
        case metric_type::histogram:
            if (!f.samples.empty() && used.insert(base).second) {
                out += "# TYPE " + base + " summary\n";
                for (const sample& s : f.samples) {
                    for (const auto& [name, q] :
                         {std::pair{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}) {
                        label_set labels = s.labels;
                        labels.emplace_back("quantile", name);
                        append_line(out, base, labels, s.hist->quantile(q));
                    }
                    append_line(out, base + "_sum", s.labels, s.hist->sum);
                    append_line(out, base + "_count", s.labels, s.hist->count);
                }
            }
            emit(base + "_max", "gauge",
                 [](const sample& s) { return std::optional<double>{s.hist->max}; });
            break;
        }
    }
    return out;
}

namespace {

/// The (key, value) fields a sample shows in JSON and text: `value` (plus
/// `max` for a tracked gauge), or a histogram's condensed summary.
std::vector<std::pair<const char*, double>> fields_of(const family& f, const sample& s)
{
    if (f.type == metric_type::histogram) {
        const log2_histogram::data& h = *s.hist;
        return {{"count", h.count},         {"sum", h.sum},
                {"mean", h.mean()},         {"p50", h.quantile(0.5)},
                {"p95", h.quantile(0.95)},  {"p99", h.quantile(0.99)},
                {"max", h.max}};
    }
    if (s.high_water) return {{"value", s.value}, {"max", *s.high_water}};
    return {{"value", s.value}};
}

}  // namespace

std::string render_json(const std::vector<family>& families)
{
    // Names and label values are free-form; they cross the JSON boundary
    // here, so this is where they get escaped.
    std::string out = "{";
    // `braces`: a lone field is a bare number, several make an object.
    auto append_fields = [&out](const family& f, const sample& s, bool braces) {
        const auto kv = fields_of(f, s);
        if (braces && kv.size() == 1) return append_number(out, kv[0].second, true);
        for (std::size_t i = 0; i < kv.size(); ++i) {
            out += std::string{i ? "," : braces ? "{" : ""} + '"' + kv[i].first + "\":";
            append_number(out, kv[i].second, true);
        }
        out += braces ? "}" : "";
    };
    const std::pair<metric_type, const char*> groups[] = {
        {metric_type::counter, "counters"},
        {metric_type::gauge, "gauges"},
        {metric_type::histogram, "histograms"},
        {metric_type::untyped, "untyped"}};
    for (const auto& [type, group] : groups) {
        out += out.size() > 1 ? ",\"" : "\"";
        out += group;
        out += "\":{";
        bool first = true;
        for (const family& f : families) {
            if (f.type != type || f.samples.empty()) continue;
            out += first ? "" : ",";
            first = false;
            out += json_quote(f.name) + ':';
            if (f.samples.size() == 1 && f.samples[0].labels.empty()) {
                append_fields(f, f.samples[0], true);
                continue;
            }
            for (std::size_t i = 0; i < f.samples.size(); ++i) {
                out += i ? ",{\"labels\":{" : "[{\"labels\":{";
                for (std::size_t l = 0; l < f.samples[i].labels.size(); ++l) {
                    const auto& [k, v] = f.samples[i].labels[l];
                    out += (l ? "," : "") + json_quote(k) + ':' + json_quote(v);
                }
                out += "},";
                append_fields(f, f.samples[i], false);
                out += '}';
            }
            out += ']';
        }
        out += '}';
    }
    return out + '}';
}

std::string render_text(const std::vector<family>& families)
{
    std::string out;
    for (const family& f : families)
        for (const sample& s : f.samples)
            for (const auto& [key, v] : fields_of(f, s)) {
                const bool bare = std::string_view{key} == "value";
                append_line(out, bare ? f.name : f.name + '_' + key, s.labels, v);
            }
    return out;
}

}  // namespace obs
