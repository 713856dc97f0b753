// Test fixture over the committed topic log: one ordering backend — the
// Kafka-style broker or a three-node Raft cluster — on a reorder-prone
// network.  Records are time-to-cut markers whose block number carries the
// test's value, so a log reads back as a plain number sequence.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "orderer/broker.h"
#include "orderer/ordering_backend.h"
#include "orderer/record.h"
#include "raft/raft.h"

namespace fl::orderer {

/// Names the backend in gtest's parameter printout.
inline void PrintTo(OrderingBackendKind kind, std::ostream* os) { *os << to_string(kind); }

}  // namespace fl::orderer

namespace fl::orderer::logtest {

inline OrderedRecord rec(BlockNumber value) {
    return OrderedRecord::time_to_cut(value, OsnId{0});
}

inline std::vector<BlockNumber> values(const std::vector<OrderedRecord>& log) {
    std::vector<BlockNumber> out;
    for (const OrderedRecord& r : log) out.push_back(r.ttc_block);
    return out;
}

/// Pops every ready record of `sub`.
inline std::vector<BlockNumber> drain(Subscription& sub) {
    std::vector<BlockNumber> out;
    while (sub.has_ready()) out.push_back(sub.pop().ttc_block);
    return out;
}

struct LogFixture {
    explicit LogFixture(OrderingBackendKind kind = OrderingBackendKind::kMq)
        : backend(make(kind, sim, net)), broker(*backend) {}

    static sim::LinkParams make_link() {
        sim::LinkParams p;
        p.base_latency = Duration::micros(500);
        p.jitter_stddev = Duration::micros(100);  // deliberately reorder-prone
        return p;
    }

    static std::unique_ptr<OrderingBackend> make(OrderingBackendKind kind,
                                                 sim::Simulator& sim,
                                                 sim::Network& net) {
        if (kind == OrderingBackendKind::kRaft) {
            return std::make_unique<raft::RaftOrderingBackend>(sim, net, Rng(7),
                                                               raft::RaftParams{});
        }
        return std::make_unique<Broker>(net);
    }

    sim::Simulator sim;
    sim::Network net{sim, Rng(3), make_link()};
    std::unique_ptr<OrderingBackend> backend;
    OrderingBackend& broker;
};

/// Parameterized over both backends; instantiate with kBothBackends.
class BackendTest : public ::testing::TestWithParam<OrderingBackendKind> {};

inline const auto kBothBackends =
    ::testing::Values(OrderingBackendKind::kMq, OrderingBackendKind::kRaft);

inline std::string backend_name(
    const ::testing::TestParamInfo<OrderingBackendKind>& info) {
    return to_string(info.param);
}

}  // namespace fl::orderer::logtest
