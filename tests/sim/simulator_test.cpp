#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

namespace fl::sim {
namespace {

TEST(EventKeyTest, OrdersByTimeThenDomainThenSequence) {
    const EventKey a{TimePoint::from_nanos(10), 5, 7};
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(11), 0, 0}));
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(10), 6, 0}));
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(10), 5, 8}));
    EXPECT_EQ(a, (EventKey{TimePoint::from_nanos(10), 5, 7}));
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(TimePoint::from_nanos(30), [&] { order.push_back(3); });
    sim.schedule_at(TimePoint::from_nanos(10), [&] { order.push_back(1); });
    sim.schedule_at(TimePoint::from_nanos(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
    Simulator sim;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_nanos(5);
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
    Simulator sim;
    TimePoint seen;
    sim.schedule_after(Duration::millis(7), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, TimePoint::origin() + Duration::millis(7));
    EXPECT_EQ(sim.now(), seen);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
    Simulator sim;
    sim.schedule_after(Duration::millis(10), [&] {
        // Scheduling "in the past" must not rewind the clock.
        sim.schedule_at(TimePoint::from_nanos(1), [&] {
            EXPECT_GE(sim.now().as_nanos(), Duration::millis(10).as_nanos());
        });
    });
    sim.run();
    EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
    Simulator sim;
    bool ran = false;
    sim.schedule_after(Duration::millis(-5), [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) {
            sim.schedule_after(Duration::millis(1), recurse);
        }
    };
    sim.schedule_after(Duration::zero(), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(4));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule_at(TimePoint::origin() + Duration::millis(i), [&] { ++count; });
    }
    sim.run_until(TimePoint::origin() + Duration::millis(5));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(5));
    sim.run();
    EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
    Simulator sim;
    sim.run_until(TimePoint::origin() + Duration::seconds(3));
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(3));
}

TEST(SimulatorTest, StepExecutesOne) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(1), [&] { ++count; });
    sim.schedule_after(Duration::millis(2), [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, TimerCancellation) {
    Simulator sim;
    bool fired = false;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [&] { fired = true; });
    EXPECT_TRUE(h.active());
    h.cancel();
    EXPECT_FALSE(h.active());
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelledTimerDoesNotCountAsExecution) {
    Simulator sim;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [] {});
    h.cancel();
    sim.schedule_after(Duration::millis(10), [] {});
    EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
    Simulator sim;
    bool fired = false;
    TimerHandle h = sim.schedule_timer(Duration::millis(1), [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    h.cancel();  // must not crash
    EXPECT_FALSE(h.active());
}

TEST(SimulatorTest, DefaultTimerHandleInactive) {
    TimerHandle h;
    EXPECT_FALSE(h.active());
    h.cancel();  // no-op
}

TEST(SimulatorTest, EventLimitThrows) {
    Simulator sim;
    sim.set_event_limit(10);
    std::function<void()> forever = [&] { sim.schedule_after(Duration::millis(1), forever); };
    sim.schedule_after(Duration::zero(), forever);
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTest, PendingCount) {
    Simulator sim;
    EXPECT_TRUE(sim.empty());
    sim.schedule_after(Duration::millis(1), [] {});
    sim.schedule_after(Duration::millis(2), [] {});
    EXPECT_EQ(sim.pending(), 2u);
}

TEST(SimulatorTest, NextEventTimeReportsEarliestLiveEvent) {
    Simulator sim;
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    sim.schedule_after(Duration::millis(10), [] {});
    sim.schedule_after(Duration::millis(3), [] {});
    EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + Duration::millis(3));
}

TEST(SimulatorTest, NextEventTimeSkipsCancelledHead) {
    // Regression: a cancelled timer sitting at the queue head used to be
    // reported as the next event time, making engines wait on (or cut
    // windows around) an event that would never run.
    Simulator sim;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [] {});
    sim.schedule_after(Duration::millis(10), [] {});
    h.cancel();
    EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + Duration::millis(10));
    EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, NextEventTimeAllCancelledReportsIdle) {
    Simulator sim;
    TimerHandle a = sim.schedule_timer(Duration::millis(1), [] {});
    TimerHandle b = sim.schedule_timer(Duration::millis(2), [] {});
    a.cancel();
    b.cancel();
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, NextEventTimePrunePreservesRunSemantics) {
    // Pruning mirrors run_one's cancelled-pop bookkeeping, so peeking the
    // next event time before running changes nothing observable.
    const auto drive = [](bool peek) {
        Simulator sim;
        TimerHandle h = sim.schedule_timer(Duration::millis(3), [] {});
        sim.schedule_after(Duration::millis(8), [] {});
        h.cancel();
        if (peek) {
            (void)sim.next_event_time();
        }
        const std::uint64_t executed = sim.run();
        return std::tuple{executed, sim.now(), sim.last_event_at()};
    };
    EXPECT_EQ(drive(true), drive(false));
}

TEST(SimulatorTest, NextEventTimePruneDoesNotAdvanceClock) {
    // The channel engine peeks between windows; a cancelled timer far in the
    // future must not move now() past the window boundary.
    Simulator sim;
    TimerHandle h = sim.schedule_timer(Duration::millis(50), [] {});
    h.cancel();
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    EXPECT_EQ(sim.now(), TimePoint::origin());
    EXPECT_EQ(sim.last_event_at(), TimePoint::origin() + Duration::millis(50));
}

TEST(SimulatorTest, ScheduleOnRunsUnderTargetDomainWithSenderKey) {
    Simulator sim;
    std::vector<DomainId> ran_as;
    sim.set_domain(5);
    sim.schedule_on(9, Duration::millis(1), [&] { ran_as.push_back(sim.domain()); });
    // Same time, scheduled later by domain 5: the sender's sequence orders it
    // after the first event even though domain 3 < 9.
    sim.schedule_on(3, Duration::millis(1), [&] { ran_as.push_back(sim.domain()); });
    sim.set_domain(7);
    sim.schedule_after(Duration::millis(1), [&] { ran_as.push_back(sim.domain()); });
    sim.run();
    EXPECT_EQ(ran_as, (std::vector<DomainId>{9, 3, 7}));
}

TEST(SimulatorTest, EqualTimeEventsTieBreakByDomainThenDomainOrder) {
    // At one timestamp the lower domain runs first whatever the schedule
    // order, and each domain's events keep their own schedule order.
    Simulator sim;
    std::vector<int> order;
    const auto at = [&](DomainId d, int tag) {
        sim.set_domain(d);
        sim.schedule_after(Duration::millis(1), [&order, tag] { order.push_back(tag); });
    };
    at(3, 30);
    at(1, 10);
    at(3, 31);
    at(2, 20);
    at(1, 11);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30, 31}));
}

TEST(SimulatorTest, EventsScheduledByAnEventRunUnderItsDomain) {
    Simulator sim;
    std::vector<DomainId> seen;
    sim.set_domain(8);
    sim.schedule_after(Duration::millis(1), [&] {
        seen.push_back(sim.domain());
        sim.schedule_after(Duration::millis(1), [&] { seen.push_back(sim.domain()); });
    });
    sim.set_domain(0);
    sim.schedule_after(Duration::millis(5), [&] { seen.push_back(sim.domain()); });
    sim.run();
    EXPECT_EQ(seen, (std::vector<DomainId>{8, 8, 0}));
}

TEST(SimulatorTest, DomainScopeRestoresPreviousDomainWhenNested) {
    Simulator sim;
    sim.set_domain(2);
    {
        DomainScope outer(sim, 5);
        EXPECT_EQ(sim.domain(), 5u);
        {
            DomainScope inner(sim, 9);
            EXPECT_EQ(sim.domain(), 9u);
        }
        EXPECT_EQ(sim.domain(), 5u);
    }
    EXPECT_EQ(sim.domain(), 2u);
}

TEST(SimulatorTest, LastEventAtIgnoresRunUntilDeadline) {
    Simulator sim;
    EXPECT_EQ(sim.last_event_at(), TimePoint::origin());
    sim.schedule_after(Duration::millis(2), [] {});
    sim.schedule_after(Duration::millis(9), [] {});
    sim.run_until(TimePoint::origin() + Duration::millis(5));
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(5));
    EXPECT_EQ(sim.last_event_at(), TimePoint::origin() + Duration::millis(2));
    sim.run();
    EXPECT_EQ(sim.last_event_at(), TimePoint::origin() + Duration::millis(9));
}

TEST(SimulatorTest, RunUntilIncludesEventsAtTheDeadline) {
    Simulator sim;
    const TimePoint deadline = TimePoint::origin() + Duration::millis(4);
    sim.schedule_at(deadline, [] {});
    sim.schedule_at(deadline + Duration::nanos(1), [] {});
    EXPECT_EQ(sim.run_until(deadline), 1u);
    EXPECT_EQ(sim.next_event_time(), deadline + Duration::nanos(1));
}

}  // namespace
}  // namespace fl::sim
