// runtime/metrics.hpp — decode-service metrics, as a thin client of the
// generic obs:: layer (see src/obs/metrics.hpp and docs/OBSERVABILITY.md).
//
// Each decode_service owns one obs::registry and declares every service
// metric there once: instruments below (the hot path is a relaxed add), and
// collectors for values its queue, pool, cache and arenas own.
// `snapshot()` is a typed query over the collected families.
#pragma once

#include "queue.hpp"

#include <obs/obs.hpp>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace runtime {

/// Compile-time build description ("RelWithDebInfo" etc.; "unknown" when the
/// build system did not say) and the compiler version string.
[[nodiscard]] const char* build_type() noexcept;
[[nodiscard]] const char* compiler_version() noexcept;

/// Typed view of the service families that benches and tests read.  Every
/// field is filled from obs::registry::collect(); /metrics carries more.
struct metrics_snapshot {
    // Admission.
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;    ///< decode threw (malformed stream, ...)
    std::uint64_t jobs_rejected = 0;  ///< refused at admission (reject policy)
    std::uint64_t jobs_dropped = 0;   ///< evicted while queued (drop_oldest)
    std::uint64_t jobs_promoted = 0;  ///< batch jobs popped past waiting interactive
    std::uint64_t jobs_batched = 0;   ///< jobs admitted through submit_batch
    std::uint64_t queue_depth_high_water = 0;

    /// Shed accounting split by admission class (indexed by runtime::priority).
    /// `dropped` is charged to the priority of the *evicted* job, which with
    /// per-priority capacities is not always the priority being pushed.
    struct priority_shed {
        std::uint64_t rejected = 0;
        std::uint64_t dropped = 0;
    };
    priority_shed shed_by_priority[priority_count];

    // Progressive (layer-streaming) jobs.
    std::uint64_t jobs_progressive = 0;        ///< jobs via submit_progressive
    std::uint64_t layers_emitted = 0;          ///< refinement images delivered
    /// Tier-1 segment bytes arithmetic-decoded by progressive sessions — the
    /// O(L) evidence: approaches the streams' total payload, never L× it.
    std::uint64_t t1_segment_bytes = 0;

    // Decoded-result cache (all zero when the service runs without one).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;     ///< flights led == decodes actually run
    std::uint64_t cache_collapses = 0;  ///< requests folded into a leader's flight
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_session_resumes = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t cache_pinned_bytes = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_session_entries = 0;

    // Per-job arena pool.
    std::uint64_t arena_fallback_allocs = 0;  ///< scratch spills to the heap
    std::uint64_t arena_high_water_bytes = 0;

    // Work.
    std::uint64_t tiles_decoded = 0;
    std::uint64_t tasks_stolen = 0;  ///< pool subtasks run by a non-owning worker
    /// Pump tasks handed to the pool; with small-job batching this is below
    /// jobs_submitted (one pump drains a whole batch).
    std::uint64_t pool_submissions = 0;

    // Cumulative per-stage wall time across all workers (Figure 1's stage
    // split, measured on the host).
    double entropy_ms = 0.0;
    double iq_ms = 0.0;
    double idwt_ms = 0.0;
    double finish_ms = 0.0;

    // End-to-end job latency (submit → future ready), queue wait included.
    std::uint64_t latency_count = 0;
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;

    // Per-priority split of the same latency (indexed by runtime::priority).
    struct priority_latency {
        std::uint64_t count = 0;
        double p50_us = 0.0;
        double p99_us = 0.0;
    };
    priority_latency latency_by_priority[priority_count];

    /// Per-codec job and cache split (sorted by codec name; only codecs that
    /// have seen traffic appear).  `name` is the registry name for known wire
    /// ids, the decimal id otherwise (`unsupported` traffic has no backend).
    struct codec_entry {
        std::string name;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t unsupported = 0;  ///< jobs refused: id not registered
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;
    };
    std::vector<codec_entry> by_codec;

    /// Fill from collected families (fields whose family is absent stay 0).
    [[nodiscard]] static metrics_snapshot from(const std::vector<obs::family>& families);
};

/// Exposition name for a codec wire id: the registry name when the id is
/// registered, the decimal id otherwise (unsupported-codec traffic has no
/// backend to ask).
[[nodiscard]] std::string codec_metric_name(std::uint8_t id);

/// Live metric registers, shared by every worker of one decode_service.
/// Each public member is a service metric's one declaration: the registry
/// family it names is what /metrics, JSON, the text dump and snapshot() show.
struct service_metrics {
    service_metrics();

    obs::registry reg;
    obs::counter& jobs_submitted = reg.get_counter("jobs_submitted");
    obs::counter& jobs_completed = reg.get_counter("jobs_completed");
    obs::counter& jobs_failed = reg.get_counter("jobs_failed");
    obs::counter& jobs_rejected = reg.get_counter("jobs_rejected");
    obs::counter& jobs_dropped = reg.get_counter("jobs_dropped");
    obs::counter& jobs_batched = reg.get_counter("jobs_batched");
    obs::counter& jobs_progressive = reg.get_counter("jobs_progressive");
    obs::counter& layers_emitted = reg.get_counter("layers_emitted");
    obs::counter& progressive_cancelled = reg.get_counter("progressive_cancelled");
    obs::counter& t1_segment_bytes = reg.get_counter("t1_segment_bytes");
    obs::gauge& progressive_active = reg.get_gauge("progressive_active");
    obs::counter& pool_submissions = reg.get_counter("pool_submissions");
    obs::counter& tiles_decoded = reg.get_counter("tiles_decoded");
    /// Submit → settle, queue wait included.
    obs::log2_histogram& latency_us = reg.get_histogram("latency_us");
    /// Per-stage wall time (entropy, iq, idwt, finish) accumulated by
    /// obs::stage_timer; exposed in seconds as stage_wall_seconds{stage}.
    std::array<obs::counter, 4> stage_ns;

    void on_rejected(priority p) noexcept
    {
        jobs_rejected.add();
        shed_[static_cast<std::size_t>(p)].rejected->add();
    }
    void on_dropped(priority p) noexcept
    {
        jobs_dropped.add();
        shed_[static_cast<std::size_t>(p)].dropped->add();
    }
    void on_progressive_started() noexcept
    {
        jobs_progressive.add();
        progressive_active.add(1);
    }
    void on_completed(priority p, std::uint8_t codec,
                      std::chrono::steady_clock::time_point submitted) noexcept;
    void on_failed(std::uint8_t codec) noexcept
    {
        jobs_failed.add();
        codec_slot(codec).failed->add();
    }
    void on_unsupported(std::uint8_t codec) noexcept
    {
        jobs_failed.add();
        codec_slot(codec).unsupported->add();
    }
    /// Wire ids seen so far, ascending.
    [[nodiscard]] std::vector<std::uint8_t> codecs_seen() const;

    /// Typed query over everything the registry collects.
    [[nodiscard]] metrics_snapshot snapshot() const
    {
        return metrics_snapshot::from(reg.collect());
    }

private:
    struct shed_counters {
        obs::counter* rejected = nullptr;
        obs::counter* dropped = nullptr;
    };
    struct codec_counters {
        obs::counter* completed = nullptr;
        obs::counter* failed = nullptr;
        obs::counter* unsupported = nullptr;
    };
    /// Per-codec outcome counters, labelled by codec name and bound the
    /// first time a wire id is seen: only codecs that see traffic appear,
    /// and every later job costs one add.
    const codec_counters& codec_slot(std::uint8_t codec) noexcept
    {
        const codec_counters* c = codecs_[codec].load(std::memory_order_acquire);
        return c ? *c : bind_codec(codec);
    }
    const codec_counters& bind_codec(std::uint8_t codec) noexcept;

    obs::log2_histogram* prio_latency_[priority_count];
    shed_counters shed_[priority_count];
    /// One slot per wire id, published once its counters are bound; the
    /// mutex serialises only the first-sight binding.
    std::array<std::atomic<const codec_counters*>, 256> codecs_{};
    std::array<codec_counters, 256> codec_storage_;
    std::mutex codec_m_;
};

}  // namespace runtime
