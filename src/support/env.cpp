#include "djstar/support/env.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace djstar::support::env {

std::optional<std::string> get(const char* var, const char* what) {
  const char* raw = std::getenv(var);
  if (raw == nullptr) return std::nullopt;
  const std::string_view value = trim(raw);
  if (value.empty()) {
    throw std::invalid_argument(std::string(var) + ": empty " + what);
  }
  return std::string(value);
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s) {
  std::vector<std::string_view> fields;
  while (true) {
    const auto comma = s.find(',');
    fields.push_back(s.substr(0, comma));
    if (comma == std::string_view::npos) return fields;
    s = s.substr(comma + 1);
  }
}

std::optional<std::uint64_t> parse_uint(std::string_view field,
                                        std::uint64_t cap) noexcept {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (field.empty()) return std::nullopt;
  std::uint64_t v = 0;
  bool over = false;
  for (char c : field) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (over || v > (kMax - d) / 10) {
      over = true;
    } else {
      v = v * 10 + d;
    }
  }
  if (over) {
    if (cap == kMax) return std::nullopt;
    return cap;
  }
  return v < cap ? v : cap;
}

std::optional<double> parse_double(std::string_view field) {
  if (field.empty()) return std::nullopt;
  const std::string tmp(field);  // strtod needs NUL termination
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (end != tmp.c_str() + tmp.size()) return std::nullopt;
  return v;
}

}  // namespace djstar::support::env
