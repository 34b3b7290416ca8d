// j2k/session.hpp — resumable progressive-decode sessions.
//
// A decode_session turns the one-shot decoder into an incremental channel:
// where `set_max_quality_layers(l); decode_all()` per refinement re-runs every
// tier-1 pass from scratch (O(L²) arithmetic-decoding work over an L-layer
// session), the session keeps per-codeblock coder state alive between calls —
// legal because the MQ codeword terminates at every layer boundary — so
// `advance_to(l)` decodes only the segments of the *new* layers and re-runs
// just the cheap downstream stages (IQ, IDWT, ICT, DC shift).  Total tier-1
// segment bytes consumed over a session are therefore O(L): each byte of the
// codestream is arithmetic-decoded exactly once, however many refinements the
// session emits.
//
//   advance_to(1) ──► tier-1 [layer 1]      ─► IQ ─► IDWT ─► finish ─► image₁
//   advance_to(2) ──► tier-1 [layer 2 only] ─► IQ ─► IDWT ─► finish ─► image₂
//   ...                       (state: coefficients + contexts persist)
//
// Every reconstruction is bit-exact with the one-shot path at the same layer
// count (asserted in tests/j2k/test_session.cpp); `decoder::decode_all` and
// `decode_all_parallel` are thin wrappers over a full-depth session.
//
// Plain (single-layer) streams degrade gracefully: the session has exactly one
// layer and `advance_to` is the classic full decode.
#pragma once

#include "codec.hpp"

#include <memory>

namespace j2k {

/// Incremental quality-progressive decoder.  The codestream bytes must
/// outlive the session (they are referenced, not copied).
class decode_session {
public:
    explicit decode_session(std::span<const std::uint8_t> cs);
    /// Build from an already-parsed decoder (shares its codestream span and
    /// per-call knobs: max_passes applies to plain streams at first advance).
    explicit decode_session(const decoder& dec);
    ~decode_session();

    decode_session(decode_session&&) noexcept;
    decode_session& operator=(decode_session&&) noexcept;
    decode_session(const decode_session&) = delete;
    decode_session& operator=(const decode_session&) = delete;

    [[nodiscard]] const stream_info& info() const noexcept;

    /// Quality layers in the stream (1 for plain streams).
    [[nodiscard]] int total_layers() const noexcept;
    /// Layers consumed so far (0 before the first advance).
    [[nodiscard]] int layers_decoded() const noexcept;
    [[nodiscard]] bool complete() const noexcept;

    /// Tile fan-out for tier-1 + synthesis: <= 1 decodes inline, > 1 runs
    /// tiles on the shared thread pool (results are identical — tiles are
    /// independent).
    void set_threads(int threads) noexcept;

    /// Decode forward to `layers` quality layers (<= 0 or past the end clamp
    /// to full depth) and return the reconstruction at that depth.  Only the
    /// segments of layers not yet consumed are tier-1 decoded; calling with
    /// `layers` at or below layers_decoded() re-runs synthesis only.
    /// `stats`, when non-null, accumulates the work of *this call* — the
    /// incremental cost, not the cumulative session cost.
    [[nodiscard]] image advance_to(int layers, decode_stats* stats = nullptr);

    /// advance_to(layers_decoded() + 1): the next refinement.
    [[nodiscard]] image advance(decode_stats* stats = nullptr);

    /// Cumulative tier-1 segment bytes arithmetic-decoded by this session —
    /// the O(L) evidence: over a full session this approaches the stream's
    /// total segment payload, never L times it.
    [[nodiscard]] std::uint64_t tier1_segment_bytes() const noexcept;

    /// Bytes of persistent decoder state this session retains: each block
    /// slot plus its tier1_block_decoder::resident_bytes() (the codestream
    /// span is the caller's and not included).  Drives the byte budget of the
    /// runtime's decoded-result cache, which holds sessions as resumable
    /// prefixes.  Plain (single-layer) streams retain no block state: 0.
    [[nodiscard]] std::size_t resident_bytes() const noexcept;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

}  // namespace j2k
