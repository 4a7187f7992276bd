// djstar/core/work_stealing.hpp
// Strategy 3 (paper §V-C): work-stealing.
//
// Each worker owns a deque holding only *executable* nodes (dependencies
// met). The owner pushes/pops at the bottom (LIFO, cache-warm), thieves
// steal from the top (FIFO, oldest node — most likely to fan out new
// work). At cycle start, the main thread seeds the deques with the
// source nodes, grouped by graph section (Deck A/B/C/D, Master) so nodes
// touching the same audio data land on the same thread
// (WorkStealingOptions in executor.hpp).
//
// Schedule fuzzing: chaos::maybe_perturb() sites cover the push-vs-park
// race (kNodeReady after the push, kBeforeWait between the epoch read
// and the idle wait); the deque's own owner/thief windows are perturbed
// inside ChaseLevDeque. See core/chaos.hpp.
#pragma once

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

/// Per-thread deques with stealing; see header comment.
using WorkStealingExecutor = LoopExecutor<Strategy::kWorkStealing>;

}  // namespace djstar::core
