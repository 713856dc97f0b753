// In-simulation message-queue broker — the Apache Kafka stand-in, and the
// `mq` ordering backend.
//
// Substitution note (DESIGN.md §2): Fabric's Kafka orderer relies on exactly
// three properties of Kafka topics, all provided by the committed topic log
// this broker appends to (OrderingBackend):
//   1. each topic is a totally-ordered, offset-addressed append log;
//   2. every consumer observes the same sequence (reading at its own pace);
//   3. multiple producers can interleave records, including control
//      messages (the time-to-cut markers), and the interleaving is the
//      same for everyone because it is fixed at append time.
//
// The broker lives at a network node; produce requests and consumer pushes
// pay network delay over the *reliable* transport (Kafka runs on TCP — a
// produced record is never lost or duplicated, only delayed).  A record is
// appended the moment its produce request arrives.
//
// Fault injection: `set_down(true)` opens an unavailability window.  Appends
// that arrive while the broker is down are deferred in arrival order and
// flushed when the window closes — the log stays total-ordered and every
// consumer still observes the same sequence, records are just late (the
// Kafka-cluster-outage model: producers block/retry, nothing is lost).
#pragma once

#include <cstdint>
#include <vector>

#include "orderer/ordering_backend.h"

namespace fl::orderer {

/// The broker's network address (and scheduling domain).
inline constexpr std::uint64_t kBrokerNode = 9000;

class Broker final : public OrderingBackend {
public:
    explicit Broker(sim::Network& net) : OrderingBackend(net) {}

    void produce(const std::string& topic, NodeId producer, std::size_t size_bytes,
                 OrderedRecord value) override;
    /// During an unavailability window the append is deferred like any
    /// other; the returned offset is where the record lands on the flush.
    Offset produce_local(const std::string& topic, std::size_t size_bytes,
                         OrderedRecord value) override;
    [[nodiscard]] NodeId node() const override { return NodeId{kBrokerNode}; }

    /// Closing the window flushes every deferred append in its original
    /// arrival order, so the post-outage log is deterministic.
    void set_down(bool down) override;
    [[nodiscard]] bool is_down() const override { return down_; }
    [[nodiscard]] std::uint64_t outages() const override { return outages_; }
    [[nodiscard]] std::uint64_t deferred_appends_total() const override {
        return deferred_total_;
    }

private:
    struct Deferred {
        std::uint32_t topic;
        std::size_t wire;
        OrderedRecord record;
    };

    void append_or_defer(std::uint32_t topic, std::size_t wire, OrderedRecord record);

    bool down_ = false;
    std::uint64_t outages_ = 0;
    std::uint64_t deferred_total_ = 0;
    std::vector<Deferred> deferred_;
};

}  // namespace fl::orderer
