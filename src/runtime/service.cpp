#include "service.hpp"

#include "cache/decoded_cache.hpp"
#include "hash.hpp"

#include <ccsds/ccsds123.hpp>
#include <codec/backend.hpp>
#include <j2k/backend.hpp>
#include <j2k/image.hpp>
#include <j2k/kernels.hpp>
#include <j2k/session.hpp>
#include <obs/obs.hpp>

#include <algorithm>
#include <string>
#include <utility>

namespace runtime {

namespace {

// Process start, near enough: captured at static initialisation.
const auto g_process_start = std::chrono::steady_clock::now();

}  // namespace

decode_service::decode_service(service_config cfg)
    : cfg_{cfg},
      queue_{cfg.queue_capacity,
             cfg.policy,
             cfg.promote_after,
             level_capacities{cfg.interactive_capacity, cfg.batch_capacity}},
      cache_{cfg.cache_bytes > 0 ? std::make_unique<decoded_cache>(cfg.cache_bytes)
                                 : nullptr},
      pool_{std::make_unique<thread_pool>(cfg.workers)}
{
    // The serving layer guarantees the built-in codecs are registered before
    // any job can name them (idempotent; static-init order plays no part).
    j2k::ensure_backend_registered();
    ccsds::ensure_backend_registered();
    // Values owned by the queue, pool and cache are read where they
    // live at collection time; the registry keeps no copy of them.
    metrics_.reg.add_collector(obs::metric_type::counter, [this](obs::sample_sink& out) {
        out.add("jobs_promoted", queue_.promoted());
        out.add("tasks_stolen", pool_->tasks_stolen());
        const cache_stats cs = cache_ ? cache_->stats() : cache_stats{};
        out.add("cache_hits", cs.hits);
        out.add("cache_misses", cs.misses);
        out.add("cache_collapses", cs.collapses);
        out.add("cache_evictions", cs.evictions);
        out.add("cache_session_resumes", cs.session_resumes);
        // Every codec that saw jobs gets a cache split, zero without a cache,
        // so a dashboard can tell a cold codec from an unused one.
        for (const std::uint8_t id : metrics_.codecs_seen()) {
            cache_stats::codec_split c{id, 0, 0};
            for (const auto& bc : cs.by_codec)
                if (bc.codec == id) c = bc;
            const obs::label_set label{{"codec", codec_metric_name(id)}};
            out.add("codec_cache_hits", c.hits, label);
            out.add("codec_cache_misses", c.misses, label);
        }
    });
    metrics_.reg.add_collector(obs::metric_type::gauge, [this](obs::sample_sink& out) {
        out.add("queue_depth", queue_.size(), {}, queue_.high_water());
        const cache_stats cs = cache_ ? cache_->stats() : cache_stats{};
        out.add("cache_bytes", cs.bytes);
        out.add("cache_pinned_bytes", cs.pinned_bytes);
        out.add("cache_entries", cs.entries);
        out.add("cache_session_entries", cs.session_entries);
        // Process metadata: info-style gauges carry their value as a label.
        out.add("build_info", 1.0,
                {{"type", build_type()}, {"compiler", compiler_version()}});
        out.add("kernel_dispatch", 1.0,
                {{"isa", j2k::kernel_isa_name(j2k::active_kernel_isa())}});
        const auto up = std::chrono::steady_clock::now() - g_process_start;
        out.add("uptime_seconds", std::chrono::duration<double>(up).count());
        out.add("pool_threads", pool_->size());
        out.add("tracing_armed", obs::tracing_enabled() ? 1.0 : 0.0);
    });
}

decode_service::~decode_service()
{
    shutdown();
}

void decode_service::settle(job& j, j2k::image&& img)
{
    if (j.settled.exchange(true, std::memory_order_acq_rel)) return;
    if (j.done)
        j.done(std::move(img), nullptr);
    else
        j.promise.set_value(std::move(img));
}

void decode_service::settle(job& j, std::exception_ptr err)
{
    if (j.settled.exchange(true, std::memory_order_acq_rel)) return;
    if (j.on_layer)
        j.on_layer(layer_event{}, std::move(err));
    else if (j.done)
        j.done(j2k::image{}, std::move(err));
    else
        j.promise.set_exception(std::move(err));
}

void decode_service::trace_queue_depths()
{
    OBS_TRACE_COUNTER("runtime", "queue_depth", queue_.size());
    OBS_TRACE_COUNTER("runtime", "queue_depth_interactive",
                      queue_.size(priority::interactive));
    OBS_TRACE_COUNTER("runtime", "queue_depth_batch", queue_.size(priority::batch));
}

std::future<j2k::image> decode_service::submit(std::span<const std::uint8_t> cs,
                                               const decode_options& opt)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = std::make_unique<job>();
    j->opt = opt;
    j->submitted_at = std::chrono::steady_clock::now();
    if (cfg_.copy_input) {
        j->owned.assign(cs.begin(), cs.end());
        j->bytes = j->owned;
    } else {
        j->bytes = cs;
    }
    auto fut = j->promise.get_future();
    if (admit(std::move(j))) pump(1);
    return fut;
}

std::future<j2k::image> decode_service::submit(std::vector<std::uint8_t>&& bytes,
                                               const decode_options& opt)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    auto fut = j->promise.get_future();
    if (admit(std::move(j))) pump(1);
    return fut;
}

void decode_service::submit_async(std::vector<std::uint8_t>&& bytes,
                                  const decode_options& opt, completion done)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    j->done = std::move(done);
    if (admit(std::move(j))) pump(1);
}

void decode_service::submit_progressive(std::vector<std::uint8_t>&& bytes,
                                        const decode_options& opt,
                                        progressive_completion on_layer)
{
    OBS_TRACE_SCOPE("runtime", "submit");
    auto j = make_job(std::move(bytes), opt);
    j->on_layer = std::move(on_layer);
    if (admit(std::move(j))) pump(1);
}

std::size_t decode_service::submit_batch(std::vector<batch_item> items)
{
    OBS_TRACE_SCOPE("runtime", "submit_batch");
    std::size_t admitted = 0;
    for (auto& it : items) {
        auto j = make_job(std::move(it.bytes), it.opt);
        j->done = std::move(it.done);
        metrics_.jobs_batched.add();
        if (admit(std::move(j))) ++admitted;
    }
    if (admitted > 0) pump(admitted);
    return admitted;
}

decode_service::job_ptr decode_service::make_job(std::vector<std::uint8_t>&& bytes,
                                                 const decode_options& opt)
{
    auto j = std::make_unique<job>();
    j->opt = opt;
    j->submitted_at = std::chrono::steady_clock::now();
    j->owned = std::move(bytes);  // ownership transfer: no copy either way
    j->bytes = j->owned;
    return j;
}

bool decode_service::admit(job_ptr j)
{
    metrics_.jobs_submitted.add();
    const decode_options opt = j->opt;

    {
        std::lock_guard lk{drain_m_};
        if (stopped_) {
            metrics_.on_rejected(opt.prio);
            settle(*j, std::make_exception_ptr(service_stopped{}));
            return false;
        }
        ++in_flight_;  // admitted (tentatively); undone on rejection
    }

    // The job span tree: an async "job" span over the whole lifetime
    // (admission → future ready) with a nested async "queue_wait" span, both
    // correlated by trace_id so they survive the submit→worker thread hop.
    j->trace_id = obs::tracer::instance().next_id();
    OBS_TRACE_ASYNC_BEGIN("job", "job", j->trace_id);
    OBS_TRACE_ASYNC_BEGIN("job", "queue_wait", j->trace_id);
    [[maybe_unused]] const std::uint64_t id = j->trace_id;

    job_ptr evicted;
    priority evicted_prio = opt.prio;
    const push_result r = queue_.push(std::move(j), opt.prio, &evicted, &evicted_prio);
    trace_queue_depths();
    switch (r) {
    case push_result::dropped:
        // Charge the drop to the priority actually evicted — with per-level
        // capacities the victim's class can differ from the pusher's.
        metrics_.on_dropped(evicted_prio);
        OBS_TRACE_INSTANT("runtime", "job_dropped");
        OBS_TRACE_ASYNC_END("job", "queue_wait", evicted->trace_id);
        OBS_TRACE_ASYNC_END("job", "job", evicted->trace_id);
        settle(*evicted, std::make_exception_ptr(job_dropped{}));
        finish_one();  // the evicted job leaves the in-flight set
        return true;
    case push_result::ok:
        return true;
    case push_result::rejected:
        metrics_.on_rejected(opt.prio);
        OBS_TRACE_INSTANT("runtime", "job_rejected");
        OBS_TRACE_ASYNC_END("job", "queue_wait", id);
        OBS_TRACE_ASYNC_END("job", "job", id);
        settle(*j, std::make_exception_ptr(admission_rejected{}));
        finish_one();
        return false;
    case push_result::closed:
        metrics_.on_rejected(opt.prio);
        OBS_TRACE_ASYNC_END("job", "queue_wait", id);
        OBS_TRACE_ASYNC_END("job", "job", id);
        settle(*j, std::make_exception_ptr(service_stopped{}));
        finish_one();
        return false;
    }
    return false;  // unreachable
}

void decode_service::pump(std::size_t n)
{
    // One pump may pop-and-run up to `n` jobs; a plain submit passes n = 1, a
    // coalesced batch passes its size, so a burst of small jobs costs one pool
    // submission.  Extra pump capacity left behind by evictions finds an empty
    // queue and returns — the invariant is pump capacity >= queued jobs.
    //
    // Pumps are *root* tasks: a popped job can park on a single-flight cache
    // entry, so one must never start from a parallel_for helping loop — the
    // flight's leader is below that loop on the same stack, and a nested
    // waiter there deadlocks the pool.
    metrics_.pool_submissions.add();
    pool_->submit_root([this, n] {
        for (std::size_t i = 0; i < n; ++i) {
            auto popped = queue_.try_pop();
            if (!popped) break;
            job_ptr& p = popped->item;
            if (popped->promoted) OBS_TRACE_INSTANT("runtime", "job_promoted");
            OBS_TRACE_ASYNC_END("job", "queue_wait", p->trace_id);
            trace_queue_depths();
            run_job(*p);
            finish_one();
        }
    });
}

void decode_service::finish_one()
{
    {
        std::lock_guard lk{drain_m_};
        --in_flight_;
    }
    drained_cv_.notify_all();
}

void decode_service::run_job(job& j)
{
    // Non-j2k codecs take the generic backend path (progressive included:
    // the backend either opens a session or the request fails typed).  j2k
    // stays on its specialised fast paths, bit-identical to before the codec
    // registry existed.
    if (j.opt.codec != j2k::k_codec_wire_id) {
        const codec::backend* be = codec::find_backend(j.opt.codec);
        if (be == nullptr) {
            metrics_.on_unsupported(j.opt.codec);
            OBS_TRACE_INSTANT("runtime", "job_unsupported_codec");
            settle(j, std::make_exception_ptr(unsupported_codec{j.opt.codec}));
            OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
            return;
        }
        run_backend_job(j, *be);
        return;
    }
    if (j.on_layer) {
        run_progressive_job(j);
        return;
    }
    if (cache_ && j.opt.cache != cache_policy::bypass) {
        run_cached_job(j);
        return;
    }
    OBS_TRACE_SCOPE("runtime", "decode_job");
    j2k::image img;
    try {
        j2k::decoder dec{j.bytes};
        dec.set_max_passes(j.opt.max_passes);
        dec.set_max_quality_layers(j.opt.max_quality_layers);
        img = j.opt.discard_levels > 0 ? dec.decode_reduced(j.opt.discard_levels)
                                       : decode_tiled(dec);
    } catch (...) {
        metrics_.on_failed(j.opt.codec);
        OBS_TRACE_INSTANT("runtime", "job_failed");
        settle(j, std::current_exception());
        OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
        return;
    }
    metrics_.on_completed(j.opt.prio, j.opt.codec, j.submitted_at);
    settle(j, std::move(img));
    OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
}

void decode_service::run_cached_job(job& j)
{
    OBS_TRACE_SCOPE("runtime", "decode_job");
    decoded_cache::image_ptr shared;
    try {
        j2k::decoder dec{j.bytes};
        dec.set_max_passes(j.opt.max_passes);
        dec.set_max_quality_layers(j.opt.max_quality_layers);

        // Normalised key: "all layers" requests (0 or >= stream depth) share
        // one entry with explicit full-depth requests.
        cache_key key;
        key.content_hash = fnv1a_bytes(j.bytes);
        key.codec = j2k::k_codec_wire_id;
        const int total = dec.info().quality_layers;
        const int cap = j.opt.max_quality_layers;
        key.layers = (cap <= 0 || cap >= total) ? total : cap;
        key.discard_levels = j.opt.discard_levels;
        key.max_passes = j.opt.max_passes;

        if (auto r = cache_->begin_flight(key)) {
            if (r->error) std::rethrow_exception(r->error);
            shared = std::move(r->image);
        } else {
            // This worker leads the flight: decode inline (never waiting on
            // another job, so a leader always makes progress) and publish.
            try {
                auto img = std::make_shared<const j2k::image>(decode_leader(j, dec, key));
                cache_->complete_flight(key, img, j.opt.cache == cache_policy::pin);
                shared = std::move(img);
            } catch (...) {
                cache_->abort_flight(key, std::current_exception());
                throw;
            }
        }
    } catch (...) {
        metrics_.on_failed(j.opt.codec);
        OBS_TRACE_INSTANT("runtime", "job_failed");
        settle(j, std::current_exception());
        OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
        return;
    }
    metrics_.on_completed(j.opt.prio, j.opt.codec, j.submitted_at);
    settle(j, j2k::image{*shared});  // each caller gets its own copy
    OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
}

void decode_service::run_backend_job(job& j, const codec::backend& be)
{
    OBS_TRACE_SCOPE("runtime", "decode_job");
    const std::uint8_t id = j.opt.codec;
    const codec::capabilities caps = be.caps();
    decoded_cache::image_ptr shared;
    try {
        // Capability gate: flags the codec cannot honour are a typed
        // rejection (same status as an unknown id on the wire), not a
        // silently ignored knob and not a generic decode failure.
        if (j.on_layer && !caps.progressive)
            throw unsupported_codec{id, "does not support progressive refinement"};
        if (j.opt.discard_levels > 0 && !caps.resolution_reduction)
            throw unsupported_codec{id, "does not support resolution reduction"};
        if (j.opt.max_quality_layers > 0 && !caps.quality_layers)
            throw unsupported_codec{id, "does not support quality-layer caps"};
        if (j.opt.max_passes > 0 && !caps.pass_cap)
            throw unsupported_codec{id, "does not support pass caps"};

        if (j.on_layer) {
            // Generic progressive: the backend's session, no prefix cache
            // (resumable-prefix caching is a j2k specialisation for now).
            metrics_.on_progressive_started();
            auto finished = [&] { metrics_.progressive_active.add(-1); };
            try {
                auto sess = be.open_session(j.bytes);
                const int stream_layers = sess->total_layers();
                const int cap = j.opt.max_quality_layers;
                const int total =
                    cap > 0 && cap < stream_layers ? cap : stream_layers;
                for (int l = 1; l <= total; ++l) {
                    codec::image img = sess->advance_to(l);
                    metrics_.layers_emitted.add();
                    const bool more = j.on_layer(
                        layer_event{l, total, l == total, std::move(img)}, nullptr);
                    if (!more && l < total) {
                        metrics_.progressive_cancelled.add();
                        break;
                    }
                }
            } catch (...) {
                finished();
                throw;
            }
            finished();
            metrics_.on_completed(j.opt.prio, id, j.submitted_at);
            j.settled.store(true, std::memory_order_release);
            OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
            return;
        }

        const codec::decode_request req{j.opt.discard_levels,
                                        j.opt.max_quality_layers, j.opt.max_passes};
        if (cache_ && j.opt.cache != cache_policy::bypass) {
            cache_key key;
            key.content_hash = fnv1a_bytes(j.bytes);
            key.codec = id;  // namespaced: byte-identical input under another
                             // codec id is a different key
            key.layers = j.opt.max_quality_layers;
            key.discard_levels = j.opt.discard_levels;
            key.max_passes = j.opt.max_passes;
            if (auto r = cache_->begin_flight(key)) {
                if (r->error) std::rethrow_exception(r->error);
                shared = std::move(r->image);
            } else {
                try {
                    auto img =
                        std::make_shared<const codec::image>(be.decode(j.bytes, req));
                    cache_->complete_flight(key, img,
                                            j.opt.cache == cache_policy::pin);
                    shared = std::move(img);
                } catch (...) {
                    cache_->abort_flight(key, std::current_exception());
                    throw;
                }
            }
        } else {
            shared = std::make_shared<const codec::image>(be.decode(j.bytes, req));
        }
    } catch (const unsupported_codec&) {
        metrics_.on_unsupported(id);
        OBS_TRACE_INSTANT("runtime", "job_unsupported_codec");
        settle(j, std::current_exception());
        OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
        return;
    } catch (...) {
        metrics_.on_failed(id);
        OBS_TRACE_INSTANT("runtime", "job_failed");
        settle(j, std::current_exception());
        OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
        return;
    }
    metrics_.on_completed(j.opt.prio, id, j.submitted_at);
    settle(j, codec::image{*shared});
    OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
}

j2k::image decode_service::decode_leader(job& j, j2k::decoder& dec, const cache_key& key)
{
    // Layered full-quality requests go through a resumable session so the
    // tier-1 prefix can be cached and extended; everything else (plain
    // streams, reduced resolution, SNR-capped) uses the classic paths.
    if (j.opt.discard_levels > 0)
        return dec.decode_reduced(j.opt.discard_levels);
    const bool layered = dec.info().quality_layers > 1;
    if (!layered || j.opt.max_passes != 0) return decode_tiled(dec);

    if (auto lease = cache_->checkout_session(key.content_hash, j.bytes, key.layers)) {
        try {
            const std::uint64_t before = lease->session.tier1_segment_bytes();
            lease->session.set_threads(pool_->size());
            j2k::image img = lease->session.advance_to(key.layers);
            metrics_.t1_segment_bytes.add(lease->session.tier1_segment_bytes() - before);
            cache_->deposit_session(key.content_hash, std::move(lease->bytes),
                                    std::move(lease->session));
            return img;
        } catch (...) {
            cache_->discard_session(key.content_hash);  // poisoned: never return it
            throw;
        }
    }

    j2k::decode_session s{j.bytes};
    s.set_threads(pool_->size());
    j2k::image img = s.advance_to(key.layers);
    metrics_.t1_segment_bytes.add(s.tier1_segment_bytes());
    // Deposit the cold prefix only when the job owns its bytes: the session
    // references the codestream storage, and a borrowed span (copy_input =
    // false) would leave it pointing into caller memory.  The vector move
    // keeps the heap buffer — and the session's references into it — stable.
    if (!j.owned.empty() && j.owned.data() == j.bytes.data()) {
        std::vector<std::uint8_t> bytes = std::move(j.owned);
        j.bytes = {};
        cache_->deposit_session(key.content_hash, std::move(bytes), std::move(s));
    }
    return img;
}

void decode_service::run_progressive_job(job& j)
{
    OBS_TRACE_SCOPE("runtime", "progressive_job");
    metrics_.on_progressive_started();
    OBS_TRACE_COUNTER("runtime", "progressive_active",
                      metrics_.progressive_active.value());
    try {
        j2k::decode_session s{j.bytes};
        const int stream_layers = s.total_layers();
        const int cap = j.opt.max_quality_layers;
        const int total = cap > 0 && cap < stream_layers ? cap : stream_layers;
        std::uint64_t prev_bytes = s.tier1_segment_bytes();
        for (int l = 1; l <= total; ++l) {
            // Per-refinement async span under the job's span tree; the j2k
            // stage spans (tier-1 / IQ / IDWT) nest inside it.
            OBS_TRACE_ASYNC_BEGIN("job", "layer", j.trace_id);
            j2k::image img = s.advance_to(l);
            OBS_TRACE_ASYNC_END("job", "layer", j.trace_id);
            metrics_.t1_segment_bytes.add(s.tier1_segment_bytes() - prev_bytes);
            prev_bytes = s.tier1_segment_bytes();
            metrics_.layers_emitted.add();
            const bool more =
                j.on_layer(layer_event{l, total, l == total, std::move(img)}, nullptr);
            if (!more && l < total) {
                metrics_.progressive_cancelled.add();
                OBS_TRACE_INSTANT("runtime", "progressive_cancelled");
                break;
            }
        }
        // Even a cancelled stream leaves a valid layer-l prefix; deposit it so
        // later full-quality submits resume instead of decoding cold.  Same
        // ownership gate as the leader path: the session references the
        // codestream storage, so only owned bytes may move into the cache.
        if (cache_ && j.opt.cache != cache_policy::bypass && stream_layers > 1 &&
            !j.owned.empty() && j.owned.data() == j.bytes.data()) {
            const std::uint64_t chash = fnv1a_bytes(j.bytes);
            std::vector<std::uint8_t> bytes = std::move(j.owned);
            j.bytes = {};
            cache_->deposit_session(chash, std::move(bytes), std::move(s));
        }
    } catch (...) {
        metrics_.on_failed(j.opt.codec);
        metrics_.progressive_active.add(-1);
        OBS_TRACE_INSTANT("runtime", "job_failed");
        settle(j, std::current_exception());  // routed through on_layer
        OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
        return;
    }
    metrics_.on_completed(j.opt.prio, j.opt.codec, j.submitted_at);
    metrics_.progressive_active.add(-1);
    j.settled.store(true, std::memory_order_release);  // all layers delivered
    OBS_TRACE_ASYNC_END("job", "job", j.trace_id);
}

j2k::image decode_service::decode_tiled(const j2k::decoder& dec)
{
    const auto& info = dec.info();
    const auto grid = dec.tiles();
    j2k::image img{info.width, info.height, info.components, info.bit_depth};
    // Per-tile fan-out: subtasks land on the submitting worker's deque and
    // are stolen by idle workers, so a single big job still uses the whole
    // pool.  Tiles are disjoint, so insert_tile writes never overlap.
    //
    // Stage wall time flows into the metrics through obs::stage_timer; the
    // spans for the individual stages (tier-1 / IQ / IDWT) are emitted one
    // layer down, inside the j2k decoder itself, and nest under "tile".
    pool_->parallel_for(static_cast<int>(grid.size()), [&](int t) {
        OBS_TRACE_SCOPE("runtime", "tile");
        j2k::tile_coeffs tc;
        {
            obs::stage_timer st{nullptr, nullptr, metrics_.stage_ns[0]};
            tc = dec.entropy_decode(t);
        }
        j2k::tile_wavelet tw;
        {
            obs::stage_timer st{nullptr, nullptr, metrics_.stage_ns[1]};
            tw = dec.dequantize(tc);
        }
        j2k::tile_pixels tp;
        {
            obs::stage_timer st{nullptr, nullptr, metrics_.stage_ns[2]};
            tp = dec.idwt(tw);
        }
        for (int c = 0; c < info.components; ++c)
            j2k::insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)],
                             grid[static_cast<std::size_t>(t)]);
        metrics_.tiles_decoded.add();
    });
    {
        obs::stage_timer st{nullptr, nullptr, metrics_.stage_ns[3]};
        dec.finish(img);
    }
    return img;
}

void decode_service::shutdown()
{
    {
        std::lock_guard lk{drain_m_};
        stopped_ = true;
    }
    queue_.close();  // wakes blocked submitters; queued jobs remain poppable
    std::unique_lock lk{drain_m_};
    drained_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

}  // namespace runtime
