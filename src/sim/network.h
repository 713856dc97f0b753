// Network model: point-to-point message delivery with propagation latency,
// transmission time (size / bandwidth) and jitter.  All experiment nodes sit
// on one LAN segment, matching the paper's single-datacenter SoftLayer
// deployment; per-pair overrides allow modelling a remote organization.
//
// Fault injection: `set_message_faults` arms seeded drop / duplication /
// extra-delay faults on the *unreliable* datagram path (`send`), which
// carries the request/reply traffic that the protocol layer protects with
// timeouts, retries and deduplication (proposals, endorsement replies,
// envelope broadcasts, commit notices).  `send_reliable` models an ordered
// reliable stream (TCP/gRPC: Kafka produce/fetch, block delivery) — it is
// exempt from injected faults and behaves exactly like the fault-free
// `send`.  The fault decisions draw from their own Rng stream, so arming
// faults never perturbs the jitter sequence, and a config with all fault
// probabilities zero is byte-identical to one with faults unset.
//
// Partitioned mode (`attach_partitions`): when the owning engine splits the
// node set across group simulators (sim/partition.h), the network becomes
// the partition boundary.  Every sender draws jitter from its own Rng
// stream (seeded by node id, so the sequence a sender observes depends only
// on its own send order — identical under any layout or interleaving) and
// keeps its own message counters; sends targeting another group are posted
// as keyed inter-partition messages instead of being scheduled locally.
// All senders must be registered up front (`register_node`) — the per-from
// tables are read-only while workers run.  Jitter is Irwin–Hall (bounded at
// ±6σ), so `base_latency − 6·jitter_stddev` is a hard per-link delay floor:
// the minimum cross-group floor is the engine's lookahead, and `set_link`
// rejects cross-group overrides that would undercut it.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "sim/partition.h"
#include "sim/simulator.h"

namespace fl::sim {

struct LinkParams {
    Duration base_latency = Duration::micros(500);  ///< one-way propagation
    double bandwidth_bps = 1e9;                     ///< 1 Gbps
    Duration jitter_stddev = Duration::micros(50);
};

/// Message-level fault rates for the unreliable send path.  All decisions
/// are drawn from the dedicated fault Rng, so every loss/duplication
/// schedule is a pure function of (params, fault seed).
struct MessageFaultParams {
    double drop_prob = 0.0;       ///< message silently lost
    double dup_prob = 0.0;        ///< message delivered twice
    double delay_prob = 0.0;      ///< message held back an extra delay
    Duration delay_mean = Duration::millis(5);  ///< mean of the extra delay (exponential)

    [[nodiscard]] bool any() const {
        return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
    }
};

class Network {
public:
    Network(Simulator& sim, Rng rng, LinkParams defaults = {});

    /// Guaranteed minimum one-way delay of a link: propagation latency minus
    /// the worst-case (bounded, Irwin–Hall ±6σ) negative jitter excursion.
    /// Transmission time only adds.  This is what lookahead derives from.
    [[nodiscard]] static Duration link_floor(const LinkParams& p) {
        return p.base_latency - p.jitter_stddev * 6;
    }

    /// Switches the network into partitioned routing (see file comment).
    /// Call before any `register_node`; `partitions` must outlive the
    /// network.  Consumes one draw from the jitter Rng to seed the
    /// per-sender stream family.
    void attach_partitions(PartitionSet* partitions);

    [[nodiscard]] bool partitioned() const { return partitions_ != nullptr; }

    /// Registers `node` as a sender (partitioned mode only): allocates its
    /// jitter stream and counter slots.  Idempotent.  Must be called for
    /// every sender before the engine starts — unknown senders throw, so a
    /// lazily-inserted table can never race across group workers.
    void register_node(NodeId node);

    /// Overrides the link parameters for the (from, to) ordered pair.  In
    /// partitioned mode a cross-group override whose floor undercuts the
    /// engine lookahead is rejected (it would break window safety).
    void set_link(NodeId from, NodeId to, LinkParams params);

    /// Arms message faults on the unreliable path.  `rng` seeds the fault
    /// decision stream (independent of the jitter stream).  Rejected when
    /// more than one partition group is attached: the fault state is shared
    /// across senders, so fault runs execute single-group (FabricNetwork
    /// rejects message faults on multi-group layouts at build time).
    void set_message_faults(MessageFaultParams params, Rng rng);

    /// Delivers a message of `size_bytes` from `from` to `to`, invoking
    /// `deliver` at the receiver after the modelled delay.  Subject to the
    /// armed message faults (drop / duplicate / extra delay).
    void send(NodeId from, NodeId to, std::size_t size_bytes, EventFn deliver);

    /// Reliable ordered-stream send: same delay model, never subject to
    /// injected faults.  Use for transports the real system runs over TCP
    /// with retransmission (Kafka produce/consume, block delivery).
    void send_reliable(NodeId from, NodeId to, std::size_t size_bytes, EventFn deliver);

    /// The delay the next send on this link would experience (samples jitter
    /// from the shared stream; unpartitioned use only).
    [[nodiscard]] Duration sample_delay(NodeId from, NodeId to, std::size_t size_bytes);

    [[nodiscard]] std::uint64_t messages_sent() const;
    [[nodiscard]] std::uint64_t bytes_sent() const;
    [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
    [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }

private:
    /// Per-sender state (partitioned mode).  Mutated only by the sender's
    /// group worker; the containing map is frozen after registration.
    struct PerFrom {
        Rng jitter;
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
    };

    [[nodiscard]] const LinkParams& params_for(NodeId from, NodeId to) const;
    [[nodiscard]] PerFrom& slot(NodeId from);
    [[nodiscard]] Duration partitioned_delay(PerFrom& pf, NodeId from, NodeId to,
                                             std::size_t size_bytes);
    void send_partitioned(NodeId from, NodeId to, std::size_t size_bytes,
                          EventFn deliver);
    /// Schedules `deliver` (possibly cross-group) `delay` after the sending
    /// group's clock, keyed at the sender.
    void route_partitioned(NodeId from, NodeId to, Duration delay, EventFn deliver);

    Simulator& sim_;
    Rng rng_;
    Rng fault_rng_;
    LinkParams defaults_;
    MessageFaultParams faults_;
    std::map<std::pair<NodeId, NodeId>, LinkParams> overrides_;
    PartitionSet* partitions_ = nullptr;
    std::uint64_t stream_base_ = 0;  ///< per-sender jitter seed family
    std::unordered_map<std::uint64_t, PerFrom> per_from_;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t duplicated_ = 0;
    std::uint64_t delayed_ = 0;
};

}  // namespace fl::sim
