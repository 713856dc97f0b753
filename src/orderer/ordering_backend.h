// OrderingBackend — the ordering service behind the OSNs, and the committed
// topic log it feeds them from.
//
// The OSNs (and everything above them) need four things from the ordering
// service:
//
//   1. totally-ordered, offset-addressed append logs (one topic per priority
//      level), fed by `produce` after producer->service network delay;
//   2. offset-ordered subscriptions that replay from any committed offset —
//      the hook OSN crash/restart recovery is built on;
//   3. random-access reads over the committed prefix (consistency checks);
//   4. an unavailability surface for fault injection (`set_down`, deferred
//      appends) plus the append hook the observability and audit layers
//      share.
//
// This base class owns (2), (3), the hook and the log itself, once.  An
// implementation only decides *when* a produced record becomes durable and
// calls `append`: the Kafka-style `Broker` on arrival (DESIGN.md §8.4), the
// deterministic simulated-time Raft cluster (`fl::raft::RaftOrderingBackend`,
// DESIGN.md §15) once the entry commits on a majority.  The contract:
//
//   - appends are atomic: offset assignment, the append hook and subscriber
//     fanout happen at one simulated instant, in append order;
//   - a record is fanned out to each live subscriber exactly once, over the
//     reliable transport, from the node the implementation names;
//     `read`/`log_of` only ever expose appended (durable) records;
//   - all randomness comes from streams owned by the implementation, so a
//     fault-free run is byte-identical across backends and `--threads`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "orderer/record.h"
#include "sim/network.h"

namespace fl::orderer {

using Offset = std::uint64_t;

/// Backend selection for NetworkConfig (DESIGN.md §15).
enum class OrderingBackendKind : std::uint8_t {
    kMq = 0,  ///< single Kafka-style broker (the original substrate)
    kRaft,    ///< deterministic simulated-time Raft cluster
};

[[nodiscard]] inline const char* to_string(OrderingBackendKind kind) {
    switch (kind) {
    case OrderingBackendKind::kMq: return "mq";
    case OrderingBackendKind::kRaft: return "raft";
    }
    return "unknown";
}

/// In-order consumer view of one topic.  Pushes arrive after network delay,
/// possibly reordered by jitter; records become visible in offset order.
class Subscription {
public:
    explicit Subscription(Offset from_offset = 0) : next_offset_(from_offset) {}

    /// True when at least one record is ready to consume.
    [[nodiscard]] bool has_ready() const { return !ready_.empty(); }

    /// Next ready record without consuming it.
    [[nodiscard]] const OrderedRecord& peek() const;
    [[nodiscard]] Offset peek_offset() const;

    /// Consumes and returns the next record.
    OrderedRecord pop();

    /// Callback fired every time new records become ready (possibly several
    /// per call).  Used by the block generator to resume Algorithm 1.
    void set_on_ready(std::function<void()> cb) { on_ready_ = std::move(cb); }

    [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
    [[nodiscard]] Offset next_expected_offset() const { return next_offset_; }
    /// Records this consumer has pop()ed so far.  Together with the
    /// backend's topic_size this yields the consumer's queue depth (lag),
    /// the per-priority backlog series the observability layer samples.
    [[nodiscard]] std::uint64_t consumed_count() const { return popped_; }

    /// Arrival of the record at `offset` (the backend's fanout delivers it).
    void deliver(Offset offset, OrderedRecord value);

private:
    std::map<Offset, OrderedRecord> pending_;             // out-of-order arrivals
    std::deque<std::pair<Offset, OrderedRecord>> ready_;  // in-order, unconsumed
    Offset next_offset_;
    std::uint64_t popped_ = 0;
    std::function<void()> on_ready_;
};

class OrderingBackend {
public:
    /// Fired synchronously on every durable append: (topic, offset, record,
    /// wire size).  Single slot, null by default and guarded by one branch,
    /// so untraced runs pay nothing.
    using AppendHook =
        std::function<void(const std::string&, Offset, const OrderedRecord&, std::size_t)>;

    /// Wire framing added to each produced payload; every backend charges
    /// it, so both send identical bytes on the data-path links.
    static constexpr std::size_t kFramingBytes = 64;

    OrderingBackend(const OrderingBackend&) = delete;
    OrderingBackend& operator=(const OrderingBackend&) = delete;
    virtual ~OrderingBackend() = default;

    /// Creates a topic; idempotent.
    void create_topic(const std::string& name);
    [[nodiscard]] bool has_topic(const std::string& name) const {
        return topic_ids_.contains(name);
    }

    /// Appends `value` after producer->service network delay; subscribers
    /// receive it once durable.  Throws std::invalid_argument for an
    /// unknown topic.
    virtual void produce(const std::string& topic, NodeId producer,
                         std::size_t size_bytes, OrderedRecord value) = 0;

    /// Appends without the producer-side network hop (unit tests).  Returns
    /// the offset the record will occupy once durable, accounting for
    /// appends still in flight (deferred or not yet committed).  Throws
    /// std::invalid_argument for an unknown topic.
    virtual Offset produce_local(const std::string& topic, std::size_t size_bytes,
                                 OrderedRecord value) = 0;

    /// Subscribes `consumer_node` from `from_offset`; the committed suffix
    /// is replayed with network delay.  Throws std::invalid_argument for an
    /// unknown topic and std::out_of_range when `from_offset` lies past the
    /// end of the topic (offset == size is the live tail).
    std::shared_ptr<Subscription> subscribe(const std::string& topic,
                                            NodeId consumer_node,
                                            Offset from_offset = 0);

    /// Random-access read of one durable record.  Throws
    /// std::invalid_argument (unknown topic) / std::out_of_range (past end).
    [[nodiscard]] const OrderedRecord& read(const std::string& topic,
                                            Offset offset) const;
    /// Records appended to `topic` so far (0 for an unknown topic).
    [[nodiscard]] std::size_t topic_size(const std::string& topic) const;
    [[nodiscard]] const std::vector<OrderedRecord>& log_of(const std::string& topic) const;

    /// Network address producers talk to (the broker node, or the Raft
    /// cluster's bootstrap contact).
    [[nodiscard]] virtual NodeId node() const = 0;

    void set_on_append(AppendHook hook) { on_append_ = std::move(hook); }

    // -- fault surface ------------------------------------------------------
    /// Opens/closes a whole-service unavailability window.  mq: broker
    /// outage with arrival-order deferred flush.  Raft: every node crashes
    /// (durable state survives) and recovers, with buffered submissions
    /// re-ordered once a leader re-emerges.
    virtual void set_down(bool down) = 0;
    [[nodiscard]] virtual bool is_down() const = 0;
    [[nodiscard]] virtual std::uint64_t outages() const = 0;
    /// Appends that arrived while the service could not commit them
    /// (lifetime total).
    [[nodiscard]] virtual std::uint64_t deferred_appends_total() const = 0;

protected:
    explicit OrderingBackend(sim::Network& net) : net_(net) {}

    /// The main simulation network: produce hops and subscriber fanout.
    [[nodiscard]] sim::Network& network() const { return net_; }
    /// Id of a created topic (dense, in creation order).  Throws
    /// std::invalid_argument for an unknown topic.
    [[nodiscard]] std::uint32_t topic_id(const std::string& name) const;
    [[nodiscard]] std::size_t committed_size(std::uint32_t topic) const {
        return topics_[topic].records.size();
    }
    /// Makes `record` durable at the end of `topic`: assigns its offset,
    /// fires the append hook, prunes expired subscribers and fans the record
    /// out from fanout_node(), all at the current instant.
    void append(std::uint32_t topic, std::size_t wire, OrderedRecord record);

private:
    struct Subscriber {
        NodeId node;
        /// Weak so a dropped consumer (e.g. a crashed OSN's generator) stops
        /// receiving pushes; expired entries are pruned on the next append.
        std::weak_ptr<Subscription> sub;
    };

    struct TopicLog {
        std::string name;  ///< stored so the append hook never formats
        std::vector<OrderedRecord> records;
        std::vector<std::size_t> wire_sizes;
        std::vector<Subscriber> subscribers;
    };

    /// Node pushes to subscribers leave from: the service's own address
    /// unless an implementation moves it (Raft: the current leader).
    [[nodiscard]] virtual NodeId fanout_node() const { return node(); }

    [[nodiscard]] const TopicLog& topic_ref(const std::string& name) const {
        return topics_[topic_id(name)];
    }
    void push(NodeId from, const Subscriber& s, Offset offset,
              const OrderedRecord& value, std::size_t wire) const;

    sim::Network& net_;
    AppendHook on_append_;
    std::vector<TopicLog> topics_;
    std::unordered_map<std::string, std::uint32_t> topic_ids_;
};

}  // namespace fl::orderer
