// djstar/core/busy_wait.hpp
// Strategy 1 (paper §V-A): busy-waiting.
//
// Nodes are assigned to threads round-robin straight from the
// dependency-sorted queue. When a thread reaches a node whose
// dependencies are not yet met it spins (actively waits) until they are.
// The paper's key result: with cycles this short (hundreds of µs) and
// dependency stalls even shorter, spinning beats sleeping — 327 µs per
// graph on 4 threads, 99 % efficiency vs. the optimal schedule.
//
// Schedule fuzzing: the dependency check is a chaos::maybe_perturb()
// site (kDependencyCheck) so the stress suite can reorder the
// check-vs-resolve race; see core/chaos.hpp.
#pragma once

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

/// Round-robin lanes + spin on unmet dependencies.
using BusyWaitExecutor = LoopExecutor<Strategy::kBusyWait>;

}  // namespace djstar::core
