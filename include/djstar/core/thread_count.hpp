// djstar/core/thread_count.hpp
// Hardened thread-count configuration.
//
// Every layer that sizes a worker pool (AudioEngine, serve::EngineHost,
// benches) resolves its thread count through here instead of trusting a
// raw integer or environment string. The rules:
//
//   - DJSTAR_THREADS, when set, overrides the configured count (it is an
//     explicit runtime request); support/env reads it, so a set-but-blank
//     value throws.
//   - "0" (env or config) means "auto": std::thread::hardware_concurrency,
//     clamped to at least 1.
//   - Negative, non-numeric, empty, or trailing-garbage values throw
//     std::invalid_argument with a message naming the offending text —
//     never a silent misconfiguration.
//   - Values above kMaxThreads are clamped to kMaxThreads (a thousand
//     spinning workers is a resource bug, not a scheduling request).
#pragma once

#include <string_view>

namespace djstar::core {

/// Upper clamp for any resolved thread count.
inline constexpr unsigned kMaxThreads = 512;

/// Parse a thread-count string ("4", "0" = auto). Returns the parsed
/// value (0 meaning auto, large values clamped to kMaxThreads). Throws
/// std::invalid_argument on empty, non-numeric, negative, or
/// trailing-garbage input; the message quotes the input.
unsigned parse_thread_count(std::string_view text);

/// Resolve the effective worker count: DJSTAR_THREADS (if set) overrides
/// `requested`; 0 resolves to hardware concurrency; the result is
/// clamped to [1, kMaxThreads]. Throws std::invalid_argument when the
/// environment value is blank or fails to parse.
unsigned resolve_thread_count(unsigned requested = 0);

}  // namespace djstar::core
