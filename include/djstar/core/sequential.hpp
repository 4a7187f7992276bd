// djstar/core/sequential.hpp
// The baseline: DJ Star's original single-threaded execution of the
// dependency-sorted node queue (paper §IV, last paragraph).
#pragma once

#include "djstar/core/loop_executor.hpp"

namespace djstar::core {

/// Executes the levelized queue front to back on the calling thread.
using SequentialExecutor = LoopExecutor<Strategy::kSequential>;

}  // namespace djstar::core
