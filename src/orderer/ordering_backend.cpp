#include "orderer/ordering_backend.h"

#include <stdexcept>

#include "common/log.h"

namespace fl::orderer {

const OrderedRecord& Subscription::peek() const {
    if (ready_.empty()) throw std::logic_error("Subscription::peek: empty");
    return ready_.front().second;
}

Offset Subscription::peek_offset() const {
    if (ready_.empty()) throw std::logic_error("Subscription::peek_offset: empty");
    return ready_.front().first;
}

OrderedRecord Subscription::pop() {
    if (ready_.empty()) throw std::logic_error("Subscription::pop: empty");
    OrderedRecord value = std::move(ready_.front().second);
    ready_.pop_front();
    ++popped_;
    return value;
}

void Subscription::deliver(Offset offset, OrderedRecord value) {
    pending_.emplace(offset, std::move(value));
    bool advanced = false;
    for (auto it = pending_.find(next_offset_); it != pending_.end();
         it = pending_.find(next_offset_)) {
        ready_.emplace_back(it->first, std::move(it->second));
        pending_.erase(it);
        ++next_offset_;
        advanced = true;
    }
    if (advanced && on_ready_) on_ready_();
}

void OrderingBackend::create_topic(const std::string& name) {
    const auto [it, inserted] =
        topic_ids_.try_emplace(name, static_cast<std::uint32_t>(topics_.size()));
    if (inserted) topics_.emplace_back().name = name;
}

std::uint32_t OrderingBackend::topic_id(const std::string& name) const {
    const auto it = topic_ids_.find(name);
    if (it == topic_ids_.end()) {
        throw std::invalid_argument("OrderingBackend: unknown topic " + name);
    }
    return it->second;
}

std::shared_ptr<Subscription> OrderingBackend::subscribe(const std::string& topic,
                                                         NodeId consumer_node,
                                                         Offset from_offset) {
    TopicLog& log = topics_[topic_id(topic)];
    if (from_offset > log.records.size()) {
        throw std::out_of_range("OrderingBackend::subscribe: offset " +
                                std::to_string(from_offset) + " past end of " +
                                topic + " (size " +
                                std::to_string(log.records.size()) + ")");
    }
    auto sub = std::make_shared<Subscription>(from_offset);
    log.subscribers.push_back(Subscriber{consumer_node, sub});
    const NodeId from = fanout_node();
    for (Offset off = from_offset; off < log.records.size(); ++off) {
        push(from, log.subscribers.back(), off, log.records[off], log.wire_sizes[off]);
    }
    return sub;
}

const OrderedRecord& OrderingBackend::read(const std::string& topic,
                                           Offset offset) const {
    const TopicLog& log = topic_ref(topic);
    if (offset >= log.records.size()) {
        throw std::out_of_range("OrderingBackend::read: offset " +
                                std::to_string(offset) + " past end of " + topic +
                                " (size " + std::to_string(log.records.size()) + ")");
    }
    return log.records[offset];
}

std::size_t OrderingBackend::topic_size(const std::string& topic) const {
    const auto it = topic_ids_.find(topic);
    return it == topic_ids_.end() ? 0 : topics_[it->second].records.size();
}

const std::vector<OrderedRecord>& OrderingBackend::log_of(const std::string& topic) const {
    return topic_ref(topic).records;
}

void OrderingBackend::append(std::uint32_t topic, std::size_t wire,
                             OrderedRecord record) {
    TopicLog& log = topics_[topic];
    const auto off = static_cast<Offset>(log.records.size());
    log.records.push_back(std::move(record));
    log.wire_sizes.push_back(wire);
    FL_TRACE("ordering: " << log.name << " append @" << off << " (" << wire
                          << " B, " << log.subscribers.size() << " subscribers)");
    if (on_append_) on_append_(log.name, off, log.records.back(), wire);
    std::erase_if(log.subscribers,
                  [](const Subscriber& s) { return s.sub.expired(); });
    const NodeId from = fanout_node();
    for (const Subscriber& s : log.subscribers) {
        push(from, s, off, log.records.back(), wire);
    }
}

void OrderingBackend::push(NodeId from, const Subscriber& s, Offset offset,
                           const OrderedRecord& value, std::size_t wire) const {
    net_.send_reliable(from, s.node, wire, [weak = s.sub, offset, value] {
        if (auto sub = weak.lock()) sub->deliver(offset, value);
    });
}

}  // namespace fl::orderer
