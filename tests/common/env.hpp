// Environment helpers for the tests that set DJSTAR_* variables.
//
// ScopedEnv sets (or, given nullptr, unsets) one variable and restores
// its previous value on destruction, so a failing expectation cannot
// leak a value into later tests or into the environment the suite was
// started with. with_env_overrides() shows what AudioEngine and
// serve::EngineHost make of DJSTAR_HEAL, DJSTAR_PROF and DJSTAR_SLO.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "djstar/engine/engine.hpp"

namespace djstar_test {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  /// Set the variable (nullptr unsets it) for the rest of the scope.
  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// `cfg` after engine::apply_env_overrides.
inline djstar::engine::EngineConfig with_env_overrides(
    djstar::engine::EngineConfig cfg = {}) {
  djstar::engine::apply_env_overrides(cfg.heal, cfg.profiler, cfg.slo);
  return cfg;
}

}  // namespace djstar_test
