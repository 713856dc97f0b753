#include "orderer/broker.h"

#include <utility>

namespace fl::orderer {

void Broker::produce(const std::string& topic, NodeId producer, std::size_t size_bytes,
                     OrderedRecord value) {
    const std::uint32_t id = topic_id(topic);
    const std::size_t wire = size_bytes + kFramingBytes;
    network().send_reliable(producer, node(), wire,
                            [this, id, wire, value = std::move(value)]() mutable {
                                append_or_defer(id, wire, std::move(value));
                            });
}

Offset Broker::produce_local(const std::string& topic, std::size_t size_bytes,
                             OrderedRecord value) {
    const std::uint32_t id = topic_id(topic);
    Offset off = committed_size(id);
    // Deferred appends targeting this topic flush ahead of this one, so they
    // occupy the next offsets; without this, every deferred produce during
    // one outage would claim the same slot.
    for (const Deferred& d : deferred_) {
        if (d.topic == id) ++off;
    }
    append_or_defer(id, size_bytes + kFramingBytes, std::move(value));
    return off;
}

void Broker::set_down(bool down) {
    if (down_ == down) return;
    down_ = down;
    if (down) {
        ++outages_;
        return;
    }
    std::vector<Deferred> flush;
    flush.swap(deferred_);
    for (Deferred& d : flush) {
        append(d.topic, d.wire, std::move(d.record));
    }
}

void Broker::append_or_defer(std::uint32_t topic, std::size_t wire,
                             OrderedRecord record) {
    if (down_) {
        deferred_.push_back(Deferred{topic, wire, std::move(record)});
        ++deferred_total_;
        return;
    }
    append(topic, wire, std::move(record));
}

}  // namespace fl::orderer
