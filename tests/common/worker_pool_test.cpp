// common/worker_pool.h: every task runs exactly once for any worker count,
// a throwing task neither stops its siblings nor escapes a thread (the
// first exception is rethrown on the caller after the join), and pinning
// reports one CPU slot per worker used without touching the caller.
#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace pq {
namespace {

TEST(WorkerPool, EveryTaskRunsExactlyOnce) {
  for (const unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
    for (const std::size_t tasks : {0u, 1u, 3u, 100u}) {
      std::vector<std::atomic<int>> hits(tasks);
      const std::vector<int> cpus =
          parallel_for(tasks, PoolOptions{workers, false},
                       [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < tasks; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
      }
      const std::size_t used =
          std::max<std::size_t>(1, std::min<std::size_t>(workers, tasks));
      EXPECT_EQ(cpus.size(), used);
      for (const int cpu : cpus) EXPECT_EQ(cpu, -1);
    }
  }
}

TEST(WorkerPool, OneWorkerRunsInIndexOrderOnTheCaller) {
  std::vector<std::size_t> order;
  parallel_for(5, PoolOptions{1, true}, [&](std::size_t i) {
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, FirstExceptionIsRethrownAfterEveryTaskRan) {
  for (const unsigned workers : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(parallel_for(64, PoolOptions{workers, false},
                              [&](std::size_t i) {
                                hits[i].fetch_add(1);
                                if (i % 16 == 3) {
                                  throw std::runtime_error("task failed");
                                }
                              }),
                 std::runtime_error)
        << "workers=" << workers;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(WorkerPool, PinnedWorkersReportOneSlotEachAndLeaveTheCallerAlone) {
#if defined(__linux__)
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
#endif
  std::atomic<int> ran{0};
  const std::vector<int> cpus = parallel_for(
      8, PoolOptions{3, true}, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  ASSERT_EQ(cpus.size(), 3u);
  // Best-effort: a restricted affinity mask leaves a slot at -1.
  for (const int cpu : cpus) EXPECT_GE(cpu, -1);
#if defined(__linux__)
  // The caller only waited; its own affinity is untouched.
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
#endif
}

}  // namespace
}  // namespace pq
