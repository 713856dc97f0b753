#include "sim/network.h"

#include <stdexcept>

namespace fl::sim {

Network::Network(Simulator& sim, Rng rng, LinkParams defaults)
    : sim_(sim), rng_(rng), defaults_(defaults) {}

void Network::attach_partitions(PartitionSet* partitions) {
    if (partitions == nullptr) {
        throw std::invalid_argument("Network: null partition set");
    }
    if (!per_from_.empty()) {
        throw std::logic_error("Network: attach_partitions after register_node");
    }
    partitions_ = partitions;
    stream_base_ = rng_.next_u64();
}

void Network::register_node(NodeId node) {
    if (partitions_ == nullptr) {
        throw std::logic_error("Network: register_node without partitions");
    }
    per_from_.try_emplace(node.value(),
                          PerFrom{Rng(derive_seed(stream_base_, node.value()))});
}

Network::PerFrom& Network::slot(NodeId from) {
    const auto it = per_from_.find(from.value());
    if (it == per_from_.end()) {
        // Registration is eager precisely so this lookup never inserts: a
        // lazily-grown table would race across concurrently-sending groups.
        throw std::logic_error("Network: send from unregistered node");
    }
    return it->second;
}

void Network::set_link(NodeId from, NodeId to, LinkParams params) {
    if (partitions_ != nullptr && partitions_->group_count() > 1 &&
        partitions_->has_domain(from.value()) && partitions_->has_domain(to.value()) &&
        partitions_->group_of(from.value()) != partitions_->group_of(to.value()) &&
        link_floor(params) < partitions_->lookahead()) {
        throw std::invalid_argument(
            "Network: cross-group link override undercuts the engine lookahead");
    }
    overrides_[{from, to}] = params;
}

void Network::set_message_faults(MessageFaultParams params, Rng rng) {
    if (partitions_ != nullptr && partitions_->group_count() > 1) {
        throw std::logic_error(
            "Network: message faults share sender state — run single-group "
            "(FabricNetwork rejects message faults on multi-group layouts)");
    }
    faults_ = params;
    fault_rng_ = rng;
}

const LinkParams& Network::params_for(NodeId from, NodeId to) const {
    const auto it = overrides_.find({from, to});
    return it == overrides_.end() ? defaults_ : it->second;
}

Duration Network::sample_delay(NodeId from, NodeId to, std::size_t size_bytes) {
    const LinkParams& p = params_for(from, to);
    const double transmit_s =
        p.bandwidth_bps > 0.0 ? static_cast<double>(size_bytes) * 8.0 / p.bandwidth_bps : 0.0;
    const double jitter_s =
        rng_.normal(0.0, p.jitter_stddev.as_seconds(), /*non_negative=*/false);
    double total = p.base_latency.as_seconds() + transmit_s + jitter_s;
    if (total < 0.0) total = 0.0;
    return Duration::from_seconds(total);
}

Duration Network::partitioned_delay(PerFrom& pf, NodeId from, NodeId to,
                                    std::size_t size_bytes) {
    const LinkParams& p = params_for(from, to);
    const double transmit_s =
        p.bandwidth_bps > 0.0 ? static_cast<double>(size_bytes) * 8.0 / p.bandwidth_bps : 0.0;
    const double jitter_s =
        pf.jitter.normal(0.0, p.jitter_stddev.as_seconds(), /*non_negative=*/false);
    double total = p.base_latency.as_seconds() + transmit_s + jitter_s;
    if (total < 0.0) total = 0.0;
    return Duration::from_seconds(total);
}

void Network::route_partitioned(NodeId from, NodeId to, Duration delay,
                                EventFn deliver) {
    const std::size_t src = partitions_->group_of(from.value());
    const std::size_t dst = partitions_->group_of(to.value());
    Simulator& src_sim = partitions_->sim_of_group(src);
    // The key is allocated at the sender, under the currently-executing
    // domain: the receiver's heap then reproduces the exact serial merge
    // order (timestamp, then scheduling domain, then per-domain sequence).
    const EventKey key = src_sim.make_key(src_sim.now() + delay);
    if (src == dst) {
        src_sim.schedule_keyed(key, to.value(), std::move(deliver));
    } else {
        partitions_->post(src, dst,
                          InterPartitionMessage{key, to.value(), std::move(deliver)});
    }
}

void Network::send_partitioned(NodeId from, NodeId to, std::size_t size_bytes,
                               EventFn deliver) {
    PerFrom& pf = slot(from);
    if (!faults_.any()) {
        ++pf.messages;
        pf.bytes += size_bytes;
        route_partitioned(from, to, partitioned_delay(pf, from, to, size_bytes),
                          std::move(deliver));
        return;
    }
    // Fault state is shared across senders, so this branch is only reachable
    // single-group (set_message_faults enforces it) and runs serially.
    // Fixed draw order (drop, delay, dup) keeps the fault stream aligned
    // with the message sequence regardless of outcomes.
    if (fault_rng_.chance(faults_.drop_prob)) {
        ++dropped_;
        return;
    }
    ++pf.messages;
    pf.bytes += size_bytes;
    Duration delay = partitioned_delay(pf, from, to, size_bytes);
    if (fault_rng_.chance(faults_.delay_prob)) {
        delay = delay + fault_rng_.exponential_duration(faults_.delay_mean);
        ++delayed_;
    }
    if (fault_rng_.chance(faults_.dup_prob)) {
        ++duplicated_;
        ++pf.messages;
        pf.bytes += size_bytes;
        const Duration dup_delay =
            delay + fault_rng_.exponential_duration(faults_.delay_mean);
        route_partitioned(from, to, dup_delay, EventFn(deliver));
    }
    route_partitioned(from, to, delay, std::move(deliver));
}

void Network::send(NodeId from, NodeId to, std::size_t size_bytes, EventFn deliver) {
    if (partitions_ != nullptr) {
        send_partitioned(from, to, size_bytes, std::move(deliver));
        return;
    }
    if (!faults_.any()) {
        ++messages_;
        bytes_ += size_bytes;
        sim_.schedule_after(sample_delay(from, to, size_bytes), std::move(deliver));
        return;
    }
    // Fixed draw order (drop, delay, dup) keeps the fault stream aligned
    // with the message sequence regardless of outcomes.
    if (fault_rng_.chance(faults_.drop_prob)) {
        ++dropped_;
        return;
    }
    ++messages_;
    bytes_ += size_bytes;
    Duration delay = sample_delay(from, to, size_bytes);
    if (fault_rng_.chance(faults_.delay_prob)) {
        delay = delay + fault_rng_.exponential_duration(faults_.delay_mean);
        ++delayed_;
    }
    if (fault_rng_.chance(faults_.dup_prob)) {
        // The duplicate models a retransmitted datagram: it arrives strictly
        // after the original, offset by an exponential retransmission gap.
        ++duplicated_;
        ++messages_;
        bytes_ += size_bytes;
        const Duration dup_delay =
            delay + fault_rng_.exponential_duration(faults_.delay_mean);
        sim_.schedule_after(dup_delay, EventFn(deliver));
    }
    sim_.schedule_after(delay, std::move(deliver));
}

void Network::send_reliable(NodeId from, NodeId to, std::size_t size_bytes,
                            EventFn deliver) {
    if (partitions_ != nullptr) {
        PerFrom& pf = slot(from);
        ++pf.messages;
        pf.bytes += size_bytes;
        route_partitioned(from, to, partitioned_delay(pf, from, to, size_bytes),
                          std::move(deliver));
        return;
    }
    ++messages_;
    bytes_ += size_bytes;
    sim_.schedule_after(sample_delay(from, to, size_bytes), std::move(deliver));
}

std::uint64_t Network::messages_sent() const {
    std::uint64_t total = messages_;
    for (const auto& [node, pf] : per_from_) total += pf.messages;
    return total;
}

std::uint64_t Network::bytes_sent() const {
    std::uint64_t total = bytes_;
    for (const auto& [node, pf] : per_from_) total += pf.bytes;
    return total;
}

}  // namespace fl::sim
