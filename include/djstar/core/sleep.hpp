// djstar/core/sleep.hpp
// Strategy 2 (paper §V-B): thread-sleeping.
//
// Same round-robin node assignment as busy-waiting, but a thread whose
// next node has unmet dependencies registers itself as the node's
// executor and goes to sleep; the predecessor that resolves the last
// dependency wakes it. Saves CPU cycles at the cost of sleep/wake
// latency — the paper's histograms show no graph execution below 0.4 ms
// with this strategy.
//
// Schedule fuzzing: chaos::maybe_perturb() sites sit inside the two
// halves of the waiter protocol — between registration and the re-check
// (kBeforeWait, the lost-wakeup window) and between resolving the last
// dependency and the notify (kBeforeNotify); see core/chaos.hpp.
#pragma once

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

/// Round-robin lanes + waiter registration + successor signalling.
using SleepExecutor = LoopExecutor<Strategy::kSleep>;

}  // namespace djstar::core
