// perfbench/src/bench.hpp — shared plumbing of the benchmark harness: the run
// options, the result a workload hands back, seeded generation helpers,
// order statistics, and the span recorder behind the traced run.
#pragma once

#include <codec/image.hpp>
#include <obs/trace.hpp>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using clk = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(clk::time_point t0) noexcept
{
    return std::chrono::duration<double, std::milli>(clk::now() - t0).count();
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// What one workload run reports.  `metrics` holds values by metric name
/// (units are declared once, in BENCHMARK.json); `invariants` holds exact
/// counts that must repeat bit-for-bit for the same seed and source.
struct result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::map<std::string, std::uint64_t> invariants;
};

result run_codec_1core(const options& opt);
result run_wire(const options& opt);

/// Deterministic generator (splitmix64): every input derives from --seed.
class rng {
public:
    explicit rng(std::uint64_t seed) noexcept : s_{seed} {}
    std::uint64_t next() noexcept
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform integer in [lo, hi].
    int range(int lo, int hi) noexcept
    {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
    }
    double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t s_;
};

/// A seeded geometry of the class `w`×`h`: width +d and height -d with d one
/// of -8, 0, +8 px.  Tile and code-block partitions change with the seed
/// while the sample count of a near-square class stays within a few percent.
struct extent {
    int w, h;
};
extent jitter(rng& r, int w, int h);

/// Output samples of a decoded image (all components).
[[nodiscard]] inline std::uint64_t samples_of(const codec::image& img)
{
    return static_cast<std::uint64_t>(img.width()) * static_cast<std::uint64_t>(img.height()) *
           static_cast<std::uint64_t>(img.components());
}

/// Median (mean of the middle pair for even counts); 0 for an empty set.
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// The CPUs this process may run on (its affinity mask at first call).
const std::vector<int>& allowed_cpus();
/// Restrict the calling thread — and every thread it creates afterwards,
/// including the library's pool and event-loop threads — to the first `n`
/// allowed CPUs (`skip` = 0) or to the allowed CPUs from index `skip` on
/// (`n` = 0).  Falls back to every allowed CPU when too few exist.
void pin(int skip, int n);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// A fixed 5M-step integer loop, timed: the same work on every run, so its
/// drift across runs is host noise, not code change.  Workloads run one
/// slice per pass or window and report the median.
double calibration_slice_ms();

// ---- traced run --------------------------------------------------------

/// Per-name span statistics built from the obs tracer's event stream.
/// Synchronous spans (B/E) nest per thread; a span's self time is its
/// duration minus the intervals its direct children cover.  Async spans
/// (b/e) are paired by (name, id) across threads and have durations only.
struct span_totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;  ///< sum of durations
    double self_ms = 0.0;   ///< sum of self times (sync spans only)
    double top_ms = 0.0;    ///< sum of durations with no parent on their thread
    std::vector<double> durations_ms;
};

class span_recorder {
public:
    /// Drain every event the tracer recorded since the last drain and fold
    /// it into the per-name totals.  Unmatched begins stay open across
    /// drains; ends whose begin was lost to ring wrap are dropped.
    void drain();
    /// Ignore everything recorded before `ns` (tracer timeline).  Spans
    /// still open are dropped: their ends may fall in the skipped stretch,
    /// and a stale open span would adopt every later span as its child.
    void start_at(std::uint64_t ns)
    {
        cursor_ = ns;
        stacks_.clear();
        async_open_.clear();
    }

    [[nodiscard]] const span_totals& get(const std::string& cat_name) const;

private:
    struct open_span {
        const char* cat;
        const char* name;
        std::uint64_t begin_ns;
        std::uint64_t child_ns;
    };
    std::uint64_t cursor_ = 0;
    std::map<std::uint32_t, std::vector<open_span>> stacks_;
    std::map<std::pair<std::string, std::int64_t>, std::uint64_t> async_open_;
    std::map<std::string, span_totals> totals_;
};

/// The benchmark's own span around a public call, on the obs tracer's
/// timeline so that library spans nest under it.
using bench_span = obs::scoped_span;

}  // namespace perfbench
