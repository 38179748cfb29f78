// Deterministic task sharding onto the kernel compute pool.
//
// The packed GEMM's threaded path owns a lazily-grown ThreadPool guarded by
// a mutex (concurrent threaded kernels serialize on it; each still runs
// parallel inside). The direct convolution kernels need the same machinery
// for their own partitions — images for forward/backward-data, filter
// channels for backward-weights — so gemm.cpp exports this one helper
// instead of every kernel growing a private pool.
//
// Determinism: the helper only distributes WHOLE tasks. As long as each
// task owns its outputs and reduces them in a fixed serial order (true for
// every caller in this codebase), any thread count is bitwise identical to
// the serial loop.
#pragma once

#include <cstddef>
#include <functional>

namespace ds {

/// Run fn(0) … fn(tasks-1). threads <= 1 (or a single task) runs the plain
/// serial loop with no pool, no mutex — the fabric-worker default. Tasks
/// may run in any order and concurrently; the call returns when all have.
void kernel_parallel_for(std::size_t tasks, std::size_t threads,
                         const std::function<void(std::size_t)>& fn);

}  // namespace ds
