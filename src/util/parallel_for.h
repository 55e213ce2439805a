// Data-parallel loops over a persistent thread pool, with one work-aware
// fan-out decision shared by every call site.
#ifndef POE_UTIL_PARALLEL_FOR_H_
#define POE_UTIL_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace poe {

/// Number of worker threads used by ParallelFor (hardware concurrency,
/// overridable with the POE_NUM_THREADS environment variable).
int NumThreads();

/// Work, in multiply-accumulates, below which a GEMM or an inference conv
/// runs inline: waking the pool costs more than the extra cores return.
/// Sized with the micro_ops WRN sweep (docs/PERF.md, "When ParallelFor
/// fans out").
inline constexpr int64_t kMinFanOutWork = int64_t{1} << 20;

/// The one fan-out decision. True when a call of `work` multiply-
/// accumulates should spread over the pool: more than one thread is
/// configured, `work` reaches kMinFanOutWork, the caller is not itself
/// running a ParallelFor chunk (nested calls run inline), and no other
/// call holds the pool right now (a hint; ParallelFor re-checks).
bool ShouldFanOut(int64_t work);

/// Runs body(begin, end) over [0, n) split into roughly equal chunks, one
/// per worker, and returns when every chunk is done. Any number of threads
/// may call it at once. Each call owns its job (a stack object whose chunks
/// are claimed with one atomic counter); the pool serves one job at a time,
/// and a call runs inline instead of waiting when n <= min_chunk, only one
/// thread is configured, the call is nested inside a chunk, or another call
/// holds the pool.
///
/// `body` must be safe to call concurrently on disjoint ranges.
void ParallelFor(int64_t n,
                 const std::function<void(int64_t begin, int64_t end)>& body,
                 int64_t min_chunk = 1024);

/// Runs body(row, col) once for every cell of the rows x cols grid,
/// distributing cells over the same worker pool. Each invocation is an
/// independent task (chunk size 1): intended for coarse 2-D task spaces
/// (e.g. one expert per task in ExpertPool::Preprocess) where per-cell
/// work is large and uneven. Runs inline under the same conditions as
/// ParallelFor.
void ParallelFor2D(int64_t rows, int64_t cols,
                   const std::function<void(int64_t row, int64_t col)>& body);

/// Test-only: calls so far that ran on the pool rather than inline, so a
/// test can check that a call site keeps small work off the pool.
int64_t PoolRunCountForTesting();

}  // namespace poe

#endif  // POE_UTIL_PARALLEL_FOR_H_
