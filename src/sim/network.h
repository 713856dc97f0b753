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
// Per-sender streams (`use_per_sender_streams`): every sender draws jitter
// from its own Rng stream, seeded by its node id, so the delays a sender
// observes depend only on its own send order; each delivery then runs
// under the receiver's scheduling domain (sim/simulator.h).  FabricNetwork's
// main network uses this mode.  Without it, all senders share one jitter
// stream and deliveries keep the sender's domain — the mode of Raft's
// consensus backplane, whose event keys depend on it.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
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

    /// Switches to per-sender jitter streams with deliveries run under the
    /// receiver's domain (see file comment).  Call before the first send.
    /// Consumes one draw from the jitter Rng to seed the stream family;
    /// each sender's stream is created on its first send.
    void use_per_sender_streams();

    /// Overrides the link parameters for the (from, to) ordered pair.
    void set_link(NodeId from, NodeId to, LinkParams params);

    /// Arms message faults on the unreliable path.  `rng` seeds the fault
    /// decision stream (independent of the jitter streams).
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
    /// from the shared stream).
    [[nodiscard]] Duration sample_delay(NodeId from, NodeId to, std::size_t size_bytes) {
        return draw_delay(rng_, from, to, size_bytes);
    }

    [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
    [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
    [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }

private:
    [[nodiscard]] const LinkParams& params_for(NodeId from, NodeId to) const;
    /// Propagation + transmission + jitter drawn from `jitter`, floored at 0.
    [[nodiscard]] Duration draw_delay(Rng& jitter, NodeId from, NodeId to,
                                      std::size_t size_bytes) const;
    /// The stream `from` draws jitter from: its own, or the shared one.
    [[nodiscard]] Rng& jitter_of(NodeId from);
    /// Schedules `deliver` `delay` from now, as `to` in per-sender mode.
    void schedule_delivery(NodeId to, Duration delay, EventFn deliver);

    Simulator& sim_;
    Rng rng_;
    Rng fault_rng_;
    LinkParams defaults_;
    MessageFaultParams faults_;
    std::map<std::pair<NodeId, NodeId>, LinkParams> overrides_;
    bool per_sender_ = false;
    std::uint64_t stream_base_ = 0;  ///< per-sender jitter seed family
    std::unordered_map<std::uint64_t, Rng> sender_jitter_;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t duplicated_ = 0;
    std::uint64_t delayed_ = 0;
};

}  // namespace fl::sim
