#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace poe {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  int64_t sum = 0;  // no synchronization: must run on the calling thread
  ParallelFor(
      100, [&](int64_t begin, int64_t end) { sum += end - begin; },
      /*min_chunk=*/1024);
  EXPECT_EQ(sum, 100);
}

TEST(ParallelForTest, ZeroAndNegativeAreNoops) {
  bool called = false;
  ParallelFor(0, [&](int64_t, int64_t) { called = true; });
  ParallelFor(-5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ComputesParallelSum) {
  const int64_t n = 1 << 20;
  std::vector<int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<int64_t> total{0};
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ParallelForTest, RepeatedInvocationsAreStable) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> count{0};
    ParallelFor(
        5000, [&](int64_t begin, int64_t end) { count += end - begin; },
        /*min_chunk=*/16);
    ASSERT_EQ(count.load(), 5000);
  }
}

TEST(ParallelForTest, NumThreadsIsPositive) {
  EXPECT_GE(NumThreads(), 1);
}

// Every call owns its job: callers on different threads neither corrupt
// each other's chunk claims nor wait for each other (a caller that finds
// the pool taken runs inline).
TEST(ParallelForTest, ConcurrentCallersEachCoverExactlyOnce) {
  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const int64_t n = 3000 + 97 * t + round;
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(
            n,
            [&](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
            },
            /*min_chunk=*/16);
        for (int64_t i = 0; i < n; ++i) {
          if (hits[i].load() != 1) failures.fetch_add(1);
        }

        const int64_t rows = 5 + t, cols = 7 + round % 5;
        std::vector<std::atomic<int>> cells(rows * cols);
        ParallelFor2D(rows, cols, [&](int64_t r, int64_t c) {
          cells[r * cols + c].fetch_add(1);
        });
        for (int64_t i = 0; i < rows * cols; ++i) {
          if (cells[i].load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

// A call made inside a chunk runs inline on the thread running that chunk,
// covers its range exactly once, and never fans out.
TEST(ParallelForTest, NestedCallRunsInlineInsideTheChunk) {
  constexpr int64_t kOuter = 16, kInner = 1000;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign_threads{0};
  std::atomic<int> fan_out_allowed{0};
  ParallelFor(
      kOuter,
      [&](int64_t begin, int64_t end) {
        const std::thread::id chunk_thread = std::this_thread::get_id();
        if (ShouldFanOut(int64_t{1} << 40)) fan_out_allowed.fetch_add(1);
        for (int64_t o = begin; o < end; ++o) {
          ParallelFor(
              kInner,
              [&](int64_t b, int64_t e) {
                if (std::this_thread::get_id() != chunk_thread) {
                  foreign_threads.fetch_add(1);
                }
                for (int64_t i = b; i < e; ++i) {
                  hits[o * kInner + i].fetch_add(1);
                }
              },
              /*min_chunk=*/1);
        }
      },
      /*min_chunk=*/1);
  for (int64_t i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(foreign_threads.load(), 0);
  EXPECT_EQ(fan_out_allowed.load(), 0);
}

// Work below kMinFanOutWork runs on the calling thread at every call site:
// the realtime batch-1 shapes never touch the pool.
TEST(ParallelForTest, WorkBelowThresholdRunsOnCallingThread) {
  EXPECT_FALSE(ShouldFanOut(0));
  EXPECT_FALSE(ShouldFanOut(kMinFanOutWork - 1));
  EXPECT_EQ(ShouldFanOut(kMinFanOutWork), NumThreads() > 1);

  Rng rng(3);
  const int64_t before = PoolRunCountForTesting();
  // 64 x 48 x 32 GEMM: ~98k multiply-accumulates.
  std::vector<float> a(64 * 32, 0.5f), b(32 * 48, 0.25f), c(64 * 48);
  Gemm(GemmA::Raw(64, 32, a.data()), GemmB::Raw(32, 48, b.data()), c.data(),
       GemmEpilogue{}, /*parallel=*/true);
  // Batch-1 inference conv, 16 -> 16 channels at 8x8: ~147k.
  Conv2d conv(16, 16, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  Tensor x = Tensor::Randn({1, 16, 8, 8}, rng);
  conv.Forward(x, /*training=*/false);
  EXPECT_EQ(PoolRunCountForTesting(), before);

  // Above the threshold the same call sites do use the pool.
  if (NumThreads() == 1) return;
  std::vector<float> big_a(256 * 256, 0.5f), big_b(256 * 256, 0.25f),
      big_c(256 * 256);
  Gemm(GemmA::Raw(256, 256, big_a.data()), GemmB::Raw(256, 256, big_b.data()),
       big_c.data(), GemmEpilogue{}, /*parallel=*/true);
  const int64_t after_gemm = PoolRunCountForTesting();
  EXPECT_GT(after_gemm, before);
  Tensor big_x = Tensor::Randn({8, 16, 32, 32}, rng);
  conv.Forward(big_x, /*training=*/false);
  EXPECT_GT(PoolRunCountForTesting(), after_gemm);
}

}  // namespace
}  // namespace poe
