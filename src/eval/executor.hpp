// Executor for campaign cells: worker threads share one atomic next-index
// cursor.
//
// Cells are coarse (milliseconds to seconds each, a few hundred per
// campaign), so one fetch_add per cell is all the scheduling they need: a
// worker that finishes a cheap cell simply claims the next index, which
// absorbs the cost imbalance (full-size SVM vs. an 8x8 smoke GEMM) without
// per-worker queues or stealing.
//
// Determinism: the executor only schedules; completion order is arbitrary,
// and callers must bank results by task index (the campaign writes
// `results[i]` and aggregates in matrix order afterwards).
#pragma once

#include <cstddef>
#include <functional>

namespace sfrv::eval {

/// Run `task(0..n-1)` across `shards` worker threads (clamped to >= 1; one
/// shard runs inline on the calling thread). If any task throws, remaining
/// tasks are abandoned and the first exception is rethrown after all
/// workers retire.
void run_sharded(std::size_t n, int shards,
                 const std::function<void(std::size_t)>& task);

}  // namespace sfrv::eval
