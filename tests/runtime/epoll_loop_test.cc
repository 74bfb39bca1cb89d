// EpollLoop: timers (ordering, cancellation), cross-thread posting,
// run_sync, fd readiness callbacks, stop semantics, the clock and
// loop-thread detection.
#include "runtime/epoll_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace fabec::runtime {
namespace {

TEST(EpollLoopTest, RunsDueTimersInDeadlineOrder) {
  EpollLoop loop;
  std::vector<int> order;
  std::promise<void> done;
  loop.schedule_event(sim::milliseconds(30), [&] {
    order.push_back(3);
    done.set_value();
  });
  loop.schedule_event(sim::milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_event(sim::milliseconds(20), [&] { order.push_back(2); });
  loop.start();
  done.get_future().wait();
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EpollLoopTest, OrdersSameDeadlineBySubmission) {
  EpollLoop loop;
  loop.start();
  std::vector<int> order;
  std::promise<void> done;
  loop.run_sync([&] {
    // Scheduled back to back from the loop thread so the deadlines share a
    // clock reading as closely as possible; ties must run FIFO.
    for (int i = 0; i < 5; ++i)
      loop.schedule_event(sim::milliseconds(1), [&order, &done, i] {
        order.push_back(i);
        if (order.size() == 5) done.set_value();
      });
  });
  done.get_future().wait();
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EpollLoopTest, CancelledTimerNeverFires) {
  EpollLoop loop;
  std::atomic<bool> fired{false};
  const auto id =
      loop.schedule_event(sim::milliseconds(20), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_event(id));
  EXPECT_FALSE(loop.cancel_event(id));  // already gone
  std::promise<void> done;
  loop.schedule_event(sim::milliseconds(40), [&] { done.set_value(); });
  loop.start();
  done.get_future().wait();
  loop.stop();
  EXPECT_FALSE(fired);
}

TEST(EpollLoopTest, PostRunsOnLoopThread) {
  EpollLoop loop;
  loop.start();
  std::promise<bool> on_loop;
  loop.post([&] { on_loop.set_value(loop.on_loop_thread()); });
  EXPECT_TRUE(on_loop.get_future().get());
  EXPECT_FALSE(loop.on_loop_thread());
  loop.stop();
}

TEST(EpollLoopTest, OnLoopThreadOnlyWhileRunningTheLoop) {
  EpollLoop loop;
  EXPECT_FALSE(loop.on_loop_thread());  // before start
  loop.start();
  bool inside = false;
  loop.run_sync([&] { inside = loop.on_loop_thread(); });
  EXPECT_TRUE(inside);
  loop.stop();
  EXPECT_FALSE(loop.on_loop_thread());
  // Inline mode: the calling thread is the loop thread while run() lasts.
  EpollLoop inline_loop;
  bool inline_inside = false;
  inline_loop.schedule_event(0, [&] {
    inline_inside = inline_loop.on_loop_thread();
    inline_loop.stop();
  });
  inline_loop.run();
  EXPECT_TRUE(inline_inside);
  EXPECT_FALSE(inline_loop.on_loop_thread());
}

TEST(EpollLoopTest, NowAdvances) {
  EpollLoop loop;
  const auto a = loop.now_ns();
  EXPECT_GE(a, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(loop.now_ns() - a, 2'000'000);
}

TEST(EpollLoopTest, RunSyncReturnsAfterExecution) {
  EpollLoop loop;
  loop.start();
  int value = 0;
  loop.run_sync([&] { value = 42; });
  EXPECT_EQ(value, 42);
  loop.stop();
}

TEST(EpollLoopTest, TimersScheduledFromLoopThreadFire) {
  EpollLoop loop;
  loop.start();
  std::promise<void> done;
  loop.post([&] {
    loop.schedule_event(sim::milliseconds(5),
                        [&] { done.set_value(); });
  });
  EXPECT_EQ(done.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  loop.stop();
}

TEST(EpollLoopTest, FdCallbackFiresOnReadable) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  std::promise<char> received;
  loop.add_fd(fds[0], [&] {
    char c = 0;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
    received.set_value(c);
  });
  loop.start();
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(received.get_future().get(), 'x');
  loop.run_sync([&] { loop.remove_fd(fds[0]); });
  // After removal the callback must not run again; this write would abort
  // the promise double-set otherwise.
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  std::promise<void> settled;
  loop.schedule_event(sim::milliseconds(30), [&] { settled.set_value(); });
  settled.get_future().wait();
  loop.stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EpollLoopTest, StopIsIdempotentFromAnyThread) {
  EpollLoop loop;
  loop.start();
  loop.stop();
  loop.stop();  // second stop is a no-op
  // Scheduling after stop is silently dropped, not a crash.
  loop.schedule_event(sim::milliseconds(1), [] { FAIL(); });
}

TEST(EpollLoopTest, StopFromLoopThread) {
  EpollLoop loop;
  std::promise<void> stopping;
  loop.schedule_event(sim::milliseconds(5), [&] {
    loop.stop();  // a signal handler's shape: stop the loop we run on
    stopping.set_value();
  });
  loop.start();
  stopping.get_future().wait();
  loop.stop();  // join
}

TEST(EpollLoopTest, RunInlineDrivesLoopOnCallingThread) {
  EpollLoop loop;
  std::atomic<int> ticks{0};
  loop.schedule_event(sim::milliseconds(1), [&] {
    ++ticks;
    loop.schedule_event(sim::milliseconds(1), [&] {
      ++ticks;
      loop.stop();
    });
  });
  loop.run();  // returns once stop() ran
  EXPECT_EQ(ticks.load(), 2);
}

}  // namespace
}  // namespace fabec::runtime
