// djstar/core/factory.hpp
// Strategy enumeration and executor factory used by the engine, the
// benches, and the tests to sweep over all scheduling strategies.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "djstar/core/executor.hpp"
#include "djstar/core/work_stealing.hpp"

namespace djstar::core {

/// Parse a short name; nullopt for unknown strings.
std::optional<Strategy> parse_strategy(std::string_view name) noexcept;

/// All strategies in paper order (BUSY, SLEEP, WS) with the baseline
/// first and the extension variant last.
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kSequential, Strategy::kBusyWait, Strategy::kSleep,
    Strategy::kWorkStealing, Strategy::kSharedQueue};

/// The three parallel strategies of Table I.
inline constexpr Strategy kParallelStrategies[] = {
    Strategy::kBusyWait, Strategy::kSleep, Strategy::kWorkStealing};

/// Construct an executor for `s` bound to `graph`.
std::unique_ptr<Executor> make_executor(Strategy s, CompiledGraph& graph,
                                        ExecOptions opts = {},
                                        WorkStealingOptions ws = {});

}  // namespace djstar::core
