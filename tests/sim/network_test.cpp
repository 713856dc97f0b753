#include "sim/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.h"

namespace fl::sim {
namespace {

LinkParams no_jitter(Duration latency, double bandwidth) {
    LinkParams p;
    p.base_latency = latency;
    p.bandwidth_bps = bandwidth;
    p.jitter_stddev = Duration::zero();
    return p;
}

TEST(NetworkTest, BaseLatencyApplied) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(2), 0.0));
    double delivered_at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 100, [&] { delivered_at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(delivered_at, 0.002, 1e-9);
}

TEST(NetworkTest, TransmissionDelayScalesWithSize) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::zero(), 8e6));  // 8 Mbps = 1 MB/s
    double delivered_at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 500'000, [&] { delivered_at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(delivered_at, 0.5, 1e-9);
}

TEST(NetworkTest, JitterVariesDelays) {
    Simulator sim;
    LinkParams p;
    p.base_latency = Duration::millis(1);
    p.bandwidth_bps = 0.0;
    p.jitter_stddev = Duration::micros(200);
    Network net(sim, Rng(7), p);
    RunningStats delays;
    for (int i = 0; i < 2000; ++i) {
        delays.add(net.sample_delay(NodeId{1}, NodeId{2}, 0).as_seconds());
    }
    EXPECT_NEAR(delays.mean(), 0.001, 0.0001);
    EXPECT_GT(delays.stddev(), 0.0001);
    EXPECT_GE(delays.min(), 0.0);  // delays never negative
}

TEST(NetworkTest, PerLinkOverride) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 0.0));
    net.set_link(NodeId{1}, NodeId{2}, no_jitter(Duration::millis(50), 0.0));
    double fast = -1.0;
    double slow = -1.0;
    net.send(NodeId{1}, NodeId{2}, 0, [&] { slow = sim.now().as_seconds(); });
    net.send(NodeId{2}, NodeId{1}, 0, [&] { fast = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(slow, 0.050, 1e-9);  // overridden direction
    EXPECT_NEAR(fast, 0.001, 1e-9);  // default the other way
}

TEST(NetworkTest, CountsTraffic) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 1e9));
    net.send(NodeId{1}, NodeId{2}, 100, [] {});
    net.send(NodeId{1}, NodeId{2}, 200, [] {});
    sim.run();
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.bytes_sent(), 300u);
}

TEST(NetworkTest, ZeroBandwidthMeansNoTransmissionDelay) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(3), 0.0));
    double at = -1.0;
    net.send(NodeId{1}, NodeId{2}, 1'000'000, [&] { at = sim.now().as_seconds(); });
    sim.run();
    EXPECT_NEAR(at, 0.003, 1e-9);
}

TEST(NetworkTest, PerSenderStreamsIgnoreOtherSendersAndDeliverAsReceiver) {
    // Sender 1's delays depend only on its own sends, and each delivery
    // runs under the receiver's domain.
    const auto delays_of_sender_1 = [](bool other_traffic) {
        Simulator sim;
        LinkParams p;
        p.jitter_stddev = Duration::micros(200);
        Network net(sim, Rng(3), p);
        net.use_per_sender_streams();
        std::vector<double> delays;
        for (int i = 0; i < 5; ++i) {
            if (other_traffic) net.send(NodeId{2}, NodeId{4}, 10, [] {});
            net.send(NodeId{1}, NodeId{4}, 10, [&sim, &delays] {
                EXPECT_EQ(sim.domain(), 4u);
                delays.push_back(sim.now().as_seconds());
            });
        }
        sim.run();
        return delays;
    };
    const std::vector<double> alone = delays_of_sender_1(false);
    EXPECT_EQ(alone.size(), 5u);
    EXPECT_EQ(alone, delays_of_sender_1(true));
}

TEST(NetworkTest, SharedStreamDeliveriesKeepSenderDomain) {
    // Without per-sender streams (Raft's backplane mode) a delivery is
    // keyed and executed under the domain that sent it.
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 0.0));
    sim.set_domain(6);
    DomainId ran_as = 0;
    net.send(NodeId{1}, NodeId{4}, 10, [&] { ran_as = sim.domain(); });
    sim.set_domain(0);
    sim.run();
    EXPECT_EQ(ran_as, 6u);
}

TEST(NetworkTest, ZeroFaultRatesMatchUnarmedNetwork) {
    // Arming all-zero fault rates must not change a single delay.
    const auto arrivals = [](bool arm) {
        Simulator sim;
        Network net(sim, Rng(11));
        if (arm) net.set_message_faults(MessageFaultParams{}, Rng(99));
        std::vector<double> at;
        for (int i = 0; i < 8; ++i) {
            net.send(NodeId{1}, NodeId{2}, 100, [&] { at.push_back(sim.now().as_seconds()); });
        }
        sim.run();
        return at;
    };
    const std::vector<double> plain = arrivals(false);
    EXPECT_EQ(plain.size(), 8u);
    EXPECT_EQ(plain, arrivals(true));
}

TEST(NetworkTest, CertainDropLosesUnreliableButNotReliableSends) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 0.0));
    net.set_message_faults(MessageFaultParams{.drop_prob = 1.0}, Rng(2));
    int unreliable = 0;
    int reliable = 0;
    for (int i = 0; i < 4; ++i) {
        net.send(NodeId{1}, NodeId{2}, 10, [&] { ++unreliable; });
        net.send_reliable(NodeId{1}, NodeId{2}, 10, [&] { ++reliable; });
    }
    sim.run();
    EXPECT_EQ(unreliable, 0);
    EXPECT_EQ(reliable, 4);
    EXPECT_EQ(net.messages_dropped(), 4u);
    EXPECT_EQ(net.messages_sent(), 4u);
}

TEST(NetworkTest, DuplicateArrivesAfterOriginal) {
    Simulator sim;
    Network net(sim, Rng(1), no_jitter(Duration::millis(1), 0.0));
    net.set_message_faults(MessageFaultParams{.dup_prob = 1.0}, Rng(3));
    std::vector<double> at;
    net.send(NodeId{1}, NodeId{2}, 10, [&] { at.push_back(sim.now().as_seconds()); });
    sim.run();
    ASSERT_EQ(at.size(), 2u);
    EXPECT_NEAR(at[0], 0.001, 1e-9);
    EXPECT_GT(at[1], at[0]);
    EXPECT_EQ(net.messages_duplicated(), 1u);
    EXPECT_EQ(net.messages_sent(), 2u);
}

}  // namespace
}  // namespace fl::sim
