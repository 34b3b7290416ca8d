#include "metrics.hpp"

#include <codec/backend.hpp>

#include <chrono>
#include <map>
#include <string_view>
#include <unordered_map>

namespace runtime {

std::string codec_metric_name(std::uint8_t id)
{
    if (const codec::backend* b = codec::find_backend(id)) return std::string{b->name()};
    return std::to_string(static_cast<int>(id));
}

const char* build_type() noexcept
{
#ifdef RUNTIME_BUILD_TYPE
    return RUNTIME_BUILD_TYPE;
#else
    return "unknown";
#endif
}

const char* compiler_version() noexcept
{
#if defined(__clang_version__)
    return "clang " __clang_version__;
#elif defined(__VERSION__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

service_metrics::service_metrics()
{
    for (std::size_t p = 0; p < priority_count; ++p) {
        const std::string pn = priority_name(static_cast<priority>(p));
        prio_latency_[p] = &reg.get_histogram("priority_latency_us", {{"priority", pn}});
        shed_[p].rejected =
            &reg.get_counter("jobs_shed", {{"priority", pn}, {"kind", "rejected"}});
        shed_[p].dropped =
            &reg.get_counter("jobs_shed", {{"priority", pn}, {"kind", "dropped"}});
    }
    reg.add_collector(obs::metric_type::counter, [this](obs::sample_sink& out) {
        const char* stages[] = {"entropy", "iq", "idwt", "finish"};
        for (std::size_t i = 0; i < stage_ns.size(); ++i)
            out.add("stage_wall_seconds", stage_ns[i].value() / 1e9,
                    {{"stage", stages[i]}});
    });
}

void service_metrics::on_completed(
    priority p, std::uint8_t codec,
    std::chrono::steady_clock::time_point submitted) noexcept
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - submitted)
                        .count();
    latency_us.observe(static_cast<std::uint64_t>(us));
    prio_latency_[static_cast<std::size_t>(p)]->observe(static_cast<std::uint64_t>(us));
    jobs_completed.add();
    codec_slot(codec).completed->add();
}

const service_metrics::codec_counters& service_metrics::bind_codec(
    std::uint8_t codec) noexcept
{
    std::lock_guard lk{codec_m_};
    codec_counters& c = codec_storage_[codec];
    if (c.completed == nullptr) {
        const obs::label_set label{{"codec", codec_metric_name(codec)}};
        c.completed = &reg.get_counter("codec_jobs_completed", label);
        c.failed = &reg.get_counter("codec_jobs_failed", label);
        c.unsupported = &reg.get_counter("codec_jobs_unsupported", label);
        codecs_[codec].store(&c, std::memory_order_release);
    }
    return c;
}

std::vector<std::uint8_t> service_metrics::codecs_seen() const
{
    std::vector<std::uint8_t> ids;
    for (std::size_t id = 0; id < codecs_.size(); ++id)
        if (codecs_[id].load(std::memory_order_acquire))
            ids.push_back(static_cast<std::uint8_t>(id));
    return ids;
}

metrics_snapshot metrics_snapshot::from(const std::vector<obs::family>& families)
{
    // The unlabelled families a bench or test reads, by field.
    using field = std::uint64_t metrics_snapshot::*;
    static const std::unordered_map<std::string_view, field> k_scalars = {
        {"jobs_submitted", &metrics_snapshot::jobs_submitted},
        {"jobs_completed", &metrics_snapshot::jobs_completed},
        {"jobs_failed", &metrics_snapshot::jobs_failed},
        {"jobs_rejected", &metrics_snapshot::jobs_rejected},
        {"jobs_dropped", &metrics_snapshot::jobs_dropped},
        {"jobs_promoted", &metrics_snapshot::jobs_promoted},
        {"jobs_batched", &metrics_snapshot::jobs_batched},
        {"jobs_progressive", &metrics_snapshot::jobs_progressive},
        {"layers_emitted", &metrics_snapshot::layers_emitted},
        {"t1_segment_bytes", &metrics_snapshot::t1_segment_bytes},
        {"cache_hits", &metrics_snapshot::cache_hits},
        {"cache_misses", &metrics_snapshot::cache_misses},
        {"cache_collapses", &metrics_snapshot::cache_collapses},
        {"cache_evictions", &metrics_snapshot::cache_evictions},
        {"cache_session_resumes", &metrics_snapshot::cache_session_resumes},
        {"cache_bytes", &metrics_snapshot::cache_bytes},
        {"cache_pinned_bytes", &metrics_snapshot::cache_pinned_bytes},
        {"cache_entries", &metrics_snapshot::cache_entries},
        {"cache_session_entries", &metrics_snapshot::cache_session_entries},
        {"tiles_decoded", &metrics_snapshot::tiles_decoded},
        {"tasks_stolen", &metrics_snapshot::tasks_stolen},
        {"pool_submissions", &metrics_snapshot::pool_submissions},
    };
    auto label = [](const obs::sample& s, std::string_view key) -> std::string_view {
        for (const auto& [k, v] : s.labels)
            if (k == key) return v;
        return {};
    };
    auto prio = [&](const obs::sample& s) {
        return label(s, "priority") == priority_name(priority::interactive) ? 0u : 1u;
    };
    const std::unordered_map<std::string_view, std::uint64_t codec_entry::*> k_codec = {
        {"codec_jobs_completed", &codec_entry::completed},
        {"codec_jobs_failed", &codec_entry::failed},
        {"codec_jobs_unsupported", &codec_entry::unsupported},
        {"codec_cache_hits", &codec_entry::cache_hits},
        {"codec_cache_misses", &codec_entry::cache_misses},
    };

    metrics_snapshot m;
    std::map<std::string, codec_entry> codecs;  // by name
    for (const obs::family& f : families) {
        for (const obs::sample& s : f.samples) {
            if (const auto it = k_scalars.find(f.name); it != k_scalars.end()) {
                m.*(it->second) = static_cast<std::uint64_t>(s.value);
            } else if (f.name == "queue_depth") {
                m.queue_depth_high_water =
                    static_cast<std::uint64_t>(s.high_water.value_or(0));
            } else if (f.name == "jobs_shed") {
                auto& shed = m.shed_by_priority[prio(s)];
                (label(s, "kind") == "rejected" ? shed.rejected : shed.dropped) =
                    static_cast<std::uint64_t>(s.value);
            } else if (f.name == "stage_wall_seconds") {
                const std::string_view st = label(s, "stage");
                double& ms = st == "entropy" ? m.entropy_ms
                             : st == "iq"    ? m.iq_ms
                             : st == "idwt"  ? m.idwt_ms
                                             : m.finish_ms;
                ms = s.value * 1e3;
            } else if (f.name == "latency_us") {
                m.latency_count = s.hist->count;
                m.latency_mean_us = s.hist->mean();
                m.latency_p50_us = s.hist->quantile(0.5);
                m.latency_p95_us = s.hist->quantile(0.95);
                m.latency_p99_us = s.hist->quantile(0.99);
            } else if (f.name == "priority_latency_us") {
                m.latency_by_priority[prio(s)] = {s.hist->count, s.hist->quantile(0.5),
                                                  s.hist->quantile(0.99)};
            } else if (const auto c = k_codec.find(f.name); c != k_codec.end()) {
                codec_entry& e = codecs[std::string{label(s, "codec")}];
                e.*(c->second) = static_cast<std::uint64_t>(s.value);
            }
        }
    }
    for (auto& [name, e] : codecs) m.by_codec.emplace_back(std::move(e)).name = name;
    return m;
}

}  // namespace runtime
