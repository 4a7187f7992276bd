#include "djstar/core/factory.hpp"

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

std::string_view to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kSequential: return "sequential";
    case Strategy::kBusyWait: return "busy";
    case Strategy::kSleep: return "sleep";
    case Strategy::kWorkStealing: return "ws";
    case Strategy::kSharedQueue: return "shared";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(std::string_view name) noexcept {
  if (name == "sequential" || name == "seq") return Strategy::kSequential;
  if (name == "busy" || name == "busy-waiting") return Strategy::kBusyWait;
  if (name == "sleep" || name == "thread-sleeping") return Strategy::kSleep;
  if (name == "ws" || name == "work-stealing") return Strategy::kWorkStealing;
  if (name == "shared" || name == "shared-queue") return Strategy::kSharedQueue;
  return std::nullopt;
}

std::unique_ptr<Executor> make_executor(Strategy s, CompiledGraph& graph,
                                        ExecOptions opts,
                                        WorkStealingOptions ws) {
  switch (s) {
    case Strategy::kSequential:
      return std::make_unique<LoopExecutor<Strategy::kSequential>>(graph, opts);
    case Strategy::kBusyWait:
      return std::make_unique<LoopExecutor<Strategy::kBusyWait>>(graph, opts);
    case Strategy::kSleep:
      return std::make_unique<LoopExecutor<Strategy::kSleep>>(graph, opts);
    case Strategy::kWorkStealing:
      return std::make_unique<LoopExecutor<Strategy::kWorkStealing>>(
          graph, opts, ws);
    case Strategy::kSharedQueue:
      return std::make_unique<LoopExecutor<Strategy::kSharedQueue>>(graph,
                                                                    opts);
  }
  return nullptr;
}

}  // namespace djstar::core
