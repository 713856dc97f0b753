#include "sim/simulator.h"

#include <stdexcept>

namespace fl::sim {

void TimerHandle::cancel() {
    if (cancelled_) *cancelled_ = true;
}

bool TimerHandle::active() const {
    return cancelled_ && !*cancelled_;
}

void Simulator::set_domain(DomainId d) {
    current_domain_ = d;
    current_seq_ = &domain_seq_[d];  // unordered_map values are pointer-stable
}

void Simulator::schedule_at(TimePoint t, EventFn fn) {
    if (t < now_) t = now_;
    queue_.push(Event{make_key(t), current_domain_, std::move(fn), nullptr});
}

void Simulator::schedule_after(Duration delay, EventFn fn) {
    schedule_on(current_domain_, delay, std::move(fn));
}

TimerHandle Simulator::schedule_timer(Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Event{make_key(now_ + delay), current_domain_, std::move(fn), cancelled});
    return TimerHandle{std::move(cancelled)};
}

void Simulator::schedule_on(DomainId exec_domain, Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    queue_.push(Event{make_key(now_ + delay), exec_domain, std::move(fn), nullptr});
}

bool Simulator::run_one() {
    // The top event is copied out before popping because the callback may
    // schedule new events (mutating the queue).
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.key.at;
    last_event_at_ = ev.key.at;
    if (ev.cancelled && *ev.cancelled) {
        return false;  // cancelled timers burn no execution budget
    }
    if (ev.cancelled) {
        *ev.cancelled = true;  // a fired timer is no longer active
    }
    set_domain(ev.exec_domain);
    ev.fn();
    ++executed_;
    if (event_limit_ != 0 && executed_ > event_limit_) {
        throw std::runtime_error("Simulator: event limit exceeded (runaway experiment?)");
    }
    return true;
}

std::uint64_t Simulator::run() {
    std::uint64_t n = 0;
    while (!queue_.empty()) {
        if (run_one()) ++n;
    }
    return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.top().key.at <= deadline) {
        if (run_one()) ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
}

bool Simulator::step() {
    while (!queue_.empty()) {
        if (run_one()) return true;  // skip cancelled entries
    }
    return false;
}

TimePoint Simulator::next_event_time() {
    while (!queue_.empty()) {
        const Event& top = queue_.top();
        if (!(top.cancelled && *top.cancelled)) return top.key.at;
        // Dead entry: discard it, but only remember its time for the
        // last_event_at() accessor (where run_one's cancelled pop would have
        // landed it — that feeds e.g. audit finalization).  The execution
        // clock must NOT move: the channel engine peeks between windows, and
        // a cancelled timer far in the future must not push now() past the
        // window boundary (later schedules would clamp to it).
        pruned_to_ = std::max(pruned_to_, top.key.at);
        queue_.pop();
    }
    return TimePoint::max();
}

}  // namespace fl::sim
