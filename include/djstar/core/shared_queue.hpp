// djstar/core/shared_queue.hpp
// Strategy 4 — the improvement the paper sketches but does not build
// (§V-B): "Instead of putting the executor thread to sleep because its
// node is currently blocked, it could look for other available nodes and
// compute them. As available nodes do not have to wait for their
// assigned executor thread but [can] be executed by one thread that has
// just finished its work, this strategy potentially has the earliest
// start times for node computations. At the same time, this aspect
// raises the queue management overhead."
//
// This configuration implements exactly that trade-off in its plainest
// form: one shared, mutex-protected ring of *ready* nodes. Every thread
// pulls whatever is executable; nobody ever waits for a specific node.
// The price is a lock acquisition per pop and per push — the "queue
// management overhead" the paper warns about, measurable against the
// lock-free work-stealing deques in bench/ablation_strategies.
#pragma once

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

/// Shared ready-queue scheduling (a centralized-queue greedy scheduler).
using SharedQueueExecutor = LoopExecutor<Strategy::kSharedQueue>;

}  // namespace djstar::core
