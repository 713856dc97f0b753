#include "orderer/broker.h"

#include <gtest/gtest.h>

#include <vector>

#include "log_fixture.h"

namespace fl::orderer {
namespace {

using logtest::drain;
using logtest::rec;
using logtest::values;
using Fixture = logtest::LogFixture;

class BrokerTest : public logtest::BackendTest {};

TEST_P(BrokerTest, UnknownTopicThrows) {
    Fixture f(GetParam());
    EXPECT_THROW(f.broker.produce("ghost", NodeId{1}, 10, rec(42)), std::invalid_argument);
    EXPECT_THROW((void)f.broker.produce_local("ghost", 10, rec(42)),
                 std::invalid_argument);
    EXPECT_THROW((void)f.broker.subscribe("ghost", NodeId{1}), std::invalid_argument);
    EXPECT_THROW((void)f.broker.log_of("ghost"), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Backends, BrokerTest, logtest::kBothBackends,
                         logtest::backend_name);

TEST(BrokerTest, CreateTopicIdempotent) {
    Fixture f;
    f.broker.create_topic("t");
    f.broker.create_topic("t");
    EXPECT_TRUE(f.broker.has_topic("t"));
    EXPECT_EQ(f.broker.topic_size("t"), 0u);
}

TEST(BrokerTest, ProduceAppendsInArrivalOrder) {
    Fixture f;
    f.broker.create_topic("t");
    for (BlockNumber i = 0; i < 20; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    EXPECT_EQ(f.broker.topic_size("t"), 20u);
}

TEST(BrokerTest, SubscriberReceivesAllInLogOrder) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    for (BlockNumber i = 0; i < 50; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    // Jitter may reorder pushes in flight; the subscription must still
    // deliver in offset order.
    const std::vector<BlockNumber> received = drain(*sub);
    const std::vector<BlockNumber> log = values(f.broker.log_of("t"));
    EXPECT_EQ(received, log);
    ASSERT_EQ(received.size(), 50u);
    for (std::size_t i = 1; i < received.size(); ++i) {
        // Values equal the log sequence, which is total order.
        EXPECT_EQ(log[i], received[i]);
    }
}

TEST(BrokerTest, AllSubscribersSeeSameSequence) {
    Fixture f;
    f.broker.create_topic("t");
    auto s1 = f.broker.subscribe("t", NodeId{5});
    auto s2 = f.broker.subscribe("t", NodeId{6});
    auto s3 = f.broker.subscribe("t", NodeId{7});
    // Interleave producers.
    for (BlockNumber i = 0; i < 30; ++i) {
        f.broker.produce("t", NodeId{1 + i % 3}, 10, rec(i * 7));
    }
    f.sim.run();
    const std::vector<std::vector<BlockNumber>> seqs = {drain(*s1), drain(*s2),
                                                        drain(*s3)};
    EXPECT_EQ(seqs[0], seqs[1]);
    EXPECT_EQ(seqs[1], seqs[2]);
    EXPECT_EQ(seqs[0].size(), 30u);
}

TEST(BrokerTest, LateSubscriberReplaysFromBeginning) {
    Fixture f;
    f.broker.create_topic("t");
    for (BlockNumber i = 0; i < 10; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    auto sub = f.broker.subscribe("t", NodeId{9});
    f.sim.run();
    EXPECT_EQ(drain(*sub), values(f.broker.log_of("t")));
}

TEST(BrokerTest, PeekDoesNotConsume) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    f.broker.produce("t", NodeId{1}, 10, rec(99));
    f.sim.run();
    ASSERT_TRUE(sub->has_ready());
    EXPECT_EQ(sub->peek().ttc_block, 99u);
    EXPECT_EQ(sub->peek_offset(), 0u);
    EXPECT_EQ(sub->ready_count(), 1u);
    EXPECT_EQ(sub->pop().ttc_block, 99u);
    EXPECT_FALSE(sub->has_ready());
}

TEST(BrokerTest, EmptySubscriptionAccessThrows) {
    Subscription sub;
    EXPECT_THROW((void)sub.peek(), std::logic_error);
    EXPECT_THROW((void)sub.peek_offset(), std::logic_error);
    EXPECT_THROW((void)sub.pop(), std::logic_error);
}

TEST(BrokerTest, OnReadyFiresOnArrival) {
    Fixture f;
    f.broker.create_topic("t");
    auto sub = f.broker.subscribe("t", NodeId{5});
    int signals = 0;
    sub->set_on_ready([&] { ++signals; });
    for (BlockNumber i = 0; i < 5; ++i) {
        f.broker.produce("t", NodeId{1}, 10, rec(i));
    }
    f.sim.run();
    EXPECT_GE(signals, 1);
    EXPECT_EQ(sub->ready_count(), 5u);
}

TEST(BrokerTest, DroppedSubscriptionDoesNotCrash) {
    Fixture f;
    f.broker.create_topic("t");
    {
        auto sub = f.broker.subscribe("t", NodeId{5});
        f.broker.produce("t", NodeId{1}, 10, rec(1));
    }  // subscription destroyed with a push in flight
    f.broker.produce("t", NodeId{1}, 10, rec(2));
    f.sim.run();
    EXPECT_EQ(f.broker.topic_size("t"), 2u);
}

TEST(BrokerTest, ProduceLocalIsImmediateAndOrdered) {
    Fixture f;
    f.broker.create_topic("t");
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(5)), 0u);
    EXPECT_EQ(f.broker.produce_local("t", 10, rec(6)), 1u);
    EXPECT_EQ(values(f.broker.log_of("t")), (std::vector<BlockNumber>{5, 6}));
}

TEST(BrokerTest, MultipleTopicsIndependent) {
    Fixture f;
    f.broker.create_topic("a");
    f.broker.create_topic("b");
    f.broker.produce_local("a", 10, rec(1));
    f.broker.produce_local("b", 10, rec(2));
    f.broker.produce_local("b", 10, rec(3));
    EXPECT_EQ(f.broker.topic_size("a"), 1u);
    EXPECT_EQ(f.broker.topic_size("b"), 2u);
}

}  // namespace
}  // namespace fl::orderer
