// djstar/support/env.hpp
// The one reader of DJSTAR_* environment variables, and the field parsers
// their grammars share. Every variable follows one contract:
//
//   - unset leaves the configured default alone (get() returns nullopt);
//   - a set value is trimmed of surrounding whitespace;
//   - a set-but-blank value throws std::invalid_argument naming the
//     variable — an explicit request that says nothing is a typo;
//   - each consumer parses the trimmed text with its own grammar, and
//     malformed text throws std::invalid_argument quoting it.
//
// README "Environment variables" lists the variables and their grammars.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace djstar::support::env {

/// Read `var`. Unset returns nullopt; set returns the trimmed value; set
/// but blank throws std::invalid_argument("<var>: empty <what>").
std::optional<std::string> get(const char* var, const char* what = "value");

/// `s` without leading and trailing whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Split `s` on ',' into untrimmed fields: n commas give n + 1 fields, so
/// "" gives one empty field and "a," gives {"a", ""}.
std::vector<std::string_view> split(std::string_view s);

/// Strict whole-field unsigned decimal: one or more ASCII digits and
/// nothing else (no sign, space or trailing text), else nullopt. A value
/// above `cap` returns `cap`, however many digits it has; with the
/// default cap, a value that does not fit 64 bits is malformed.
std::optional<std::uint64_t> parse_uint(
    std::string_view field,
    std::uint64_t cap = std::numeric_limits<std::uint64_t>::max()) noexcept;

/// Strict whole-field decimal (strtod syntax): nullopt unless `field` is
/// non-empty and the number consumes all of it.
std::optional<double> parse_double(std::string_view field);

}  // namespace djstar::support::env
