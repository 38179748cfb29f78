// The asynchronous family (§5.1): parameter-server methods where each
// worker runs in its own thread against a shared-memory master.
//
//   Async SGD      — classic parameter server (Dean et al.), FCFS lock.
//   Async MSGD     — + momentum on the master, Equations (3)(4).
//   Async EASGD    — FCFS parameter-server schedule with the elastic rules,
//                    Equations (1)(2) (the paper's first redesign).
//   Async MEASGD   — + worker momentum, Equations (5)(6).
//   Hogwild SGD    — Async SGD without the master lock (Recht et al.).
//   Hogwild EASGD  — Async EASGD without the master lock (the paper's
//                    second contribution: lock-free elastic averaging).
//
// Workers are real OS threads and the Hogwild variants really do update the
// shared center weights without synchronisation — data races on floats are
// the algorithm, exactly as in the Hogwild paper. Consequently these runs
// are *not* deterministic (the paper makes the same point about
// asynchronous methods, §8).
//
// Virtual time: each worker advances its own clock by compute + transfer
// costs; a locked master serialises interactions (its clock is the maximum
// of its own and the worker's, plus service time), which is precisely why
// Hogwild EASGD overtakes Async EASGD once the master saturates.
#pragma once

#include "comm/fault.hpp"
#include "core/context.hpp"
#include "core/run_result.hpp"
#include "simhw/gpu_system.hpp"

namespace ds {

enum class AsyncMethod {
  kAsyncSgd,
  kAsyncMomentumSgd,
  kAsyncEasgd,
  kAsyncMomentumEasgd,
  kHogwildSgd,
  kHogwildEasgd,
};

const char* async_method_name(AsyncMethod method);

/// Fault semantics: the async family degrades gracefully. A worker whose
/// virtual clock crosses its scheduled crash time stops at the next
/// iteration boundary and the survivors absorb the remaining interaction
/// budget (the FCFS ticket queue redistributes work automatically);
/// straggler factors slow the affected worker's virtual clock. The result
/// records the surviving worker count and the interactions actually
/// completed; if the crashes leave the budget unfinished (every worker
/// died), RunResult::aborted is set. An inactive plan is behavior-neutral.
RunResult run_async(const AlgoContext& ctx, const GpuSystem& hw,
                    AsyncMethod method,
                    const FaultPlan& faults = FaultPlan::none());

}  // namespace ds
