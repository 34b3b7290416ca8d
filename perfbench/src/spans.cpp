// perfbench/src/spans.cpp — order statistics, host probes, and the span
// recorder that turns the obs tracer's event stream into per-layer times.
#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

extent jitter(rng& r, int w, int h)
{
    const int d = 8 * r.range(-1, 1);
    return {std::max(8, w + d), std::max(8, h - d)};
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    const std::size_t n = v.size();
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2), v.end());
    const double hi = v[n / 2];
    if (n % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2));
    return (lo + hi) / 2.0;
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t k =
        std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

const std::vector<int>& allowed_cpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set)) v.push_back(c);
        return v;
    }();
    return cpus;
}

void pin(int skip, int n)
{
    const std::vector<int>& all = allowed_cpus();
    cpu_set_t set;
    CPU_ZERO(&set);
    const int count = static_cast<int>(all.size());
    const int end = n > 0 ? skip + n : count;
    const bool fits = skip < count && end <= count;
    for (int i = fits ? skip : 0; i < (fits ? end : count); ++i) CPU_SET(all[static_cast<std::size_t>(i)], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

double calibration_slice_ms()
{
    const auto t0 = clk::now();
    std::uint64_t x = 0x243F6A8885A308D3ull;
    for (int i = 0; i < 5'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Keep the loop's result observable so it cannot be folded away.
    volatile std::uint64_t sink = x;
    (void)sink;
    return ms_since(t0);
}

// ---- span recorder -----------------------------------------------------

namespace {

std::string key_of(const char* cat, const char* name)
{
    return std::string{cat ? cat : ""} + "/" + (name ? name : "");
}

}  // namespace

void span_recorder::drain()
{
    auto& tr = obs::tracer::instance();
    const std::vector<obs::trace_event> evs = tr.collect_since(cursor_);
    cursor_ = obs::tracer::next_cursor(evs, cursor_);
    for (const obs::trace_event& ev : evs) {
        switch (ev.type) {
        case obs::event_type::begin:
            stacks_[ev.tid].push_back({ev.category, ev.name, ev.ts_ns, 0});
            break;
        case obs::event_type::end: {
            auto& st = stacks_[ev.tid];
            // Find the matching open span; anything above it lost its end
            // to ring wrap and is discarded.
            auto it = std::find_if(st.rbegin(), st.rend(), [&](const open_span& o) {
                return o.name == ev.name && o.cat == ev.category;
            });
            if (it == st.rend()) break;  // begin lost to ring wrap
            st.erase(std::next(it).base() + 1, st.end());
            const open_span o = st.back();
            st.pop_back();
            const std::uint64_t dur = ev.ts_ns >= o.begin_ns ? ev.ts_ns - o.begin_ns : 0;
            span_totals& t = totals_[key_of(o.cat, o.name)];
            ++t.count;
            t.total_ms += static_cast<double>(dur) / 1e6;
            t.self_ms += static_cast<double>(dur - std::min(dur, o.child_ns)) / 1e6;
            t.durations_ms.push_back(static_cast<double>(dur) / 1e6);
            if (st.empty())
                t.top_ms += static_cast<double>(dur) / 1e6;
            else
                st.back().child_ns += dur;
            break;
        }
        case obs::event_type::async_begin:
            async_open_[{key_of(ev.category, ev.name), ev.value}] = ev.ts_ns;
            break;
        case obs::event_type::async_end: {
            const auto it = async_open_.find({key_of(ev.category, ev.name), ev.value});
            if (it == async_open_.end()) break;
            const std::uint64_t dur = ev.ts_ns >= it->second ? ev.ts_ns - it->second : 0;
            span_totals& t = totals_[it->first.first];
            ++t.count;
            t.total_ms += static_cast<double>(dur) / 1e6;
            t.durations_ms.push_back(static_cast<double>(dur) / 1e6);
            async_open_.erase(it);
            break;
        }
        case obs::event_type::instant:
            ++totals_[key_of(ev.category, ev.name)].count;
            break;
        case obs::event_type::counter:
            break;
        }
    }
}

const span_totals& span_recorder::get(const std::string& cat_name) const
{
    static const span_totals empty;
    const auto it = totals_.find(cat_name);
    return it == totals_.end() ? empty : it->second;
}

}  // namespace perfbench
