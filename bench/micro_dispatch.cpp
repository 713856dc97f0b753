// Microbenchmarks M6 — simulator event dispatch, the per-event cost every
// run pays.
//
// BM_SimulatorDispatch is the before/after for the SmallFn satellite: the
// simulator's EventFn used to be std::function<void()>, whose inline buffer
// (typically 16 bytes) heap-allocates for the simulation's usual captures
// (`this` + a few ids / payload handles).  SmallFn's 64-byte inline buffer
// keeps those off the allocator.  BM_FunctorRoundTrip isolates the functor
// construct/move/invoke cost itself at the same capture sizes so the two
// storage strategies can be compared directly without the queue in the way.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "sim/simulator.h"

namespace {

using namespace fl;

/// Capture payload sized by the benchmark argument: 24 bytes (3 words, the
/// typical `this` + id + handle closure) fits std::function's inline buffer
/// on neither libstdc++ nor libc++; 56 bytes is a large-but-common closure
/// that still fits SmallFn inline.
template <std::size_t Words>
struct Payload {
    std::uint64_t w[Words];
};

template <std::size_t Words>
void schedule_chain(sim::Simulator& sim, std::uint64_t& sink,
                    std::uint64_t remaining) {
    Payload<Words> p{};
    p.w[0] = remaining;
    sim.schedule_after(Duration::micros(1), [&sim, &sink, p] {
        sink += p.w[0];
        if (p.w[0] > 0) schedule_chain<Words>(sim, sink, p.w[0] - 1);
    });
}

/// End-to-end dispatch: schedule + pop + invoke through the real event
/// queue, with each event scheduling its successor (the simulator's usual
/// self-perpetuating pattern — timers, consume loops, retries).
template <std::size_t Words>
void BM_SimulatorDispatch(benchmark::State& state) {
    const std::uint64_t chain = 4096;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        schedule_chain<Words>(sim, sink, chain);
        sim.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * chain));
}
BENCHMARK(BM_SimulatorDispatch<3>);
BENCHMARK(BM_SimulatorDispatch<7>);

/// Functor storage round trip (construct → move → invoke → destroy) for the
/// two storage strategies at the same capture size, no event queue.
template <typename FnType, std::size_t Words>
void functor_round_trip(benchmark::State& state) {
    std::uint64_t sink = 0;
    Payload<Words> p{};
    for (auto _ : state) {
        p.w[0] = sink;
        FnType fn = [&sink, p] { sink += p.w[0] + 1; };
        FnType moved = std::move(fn);
        moved();
        benchmark::DoNotOptimize(moved);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <std::size_t Words>
void BM_FunctorRoundTrip_StdFunction(benchmark::State& state) {
    functor_round_trip<std::function<void()>, Words>(state);
}
template <std::size_t Words>
void BM_FunctorRoundTrip_SmallFn(benchmark::State& state) {
    functor_round_trip<sim::SmallFn, Words>(state);
}
BENCHMARK(BM_FunctorRoundTrip_StdFunction<3>);
BENCHMARK(BM_FunctorRoundTrip_SmallFn<3>);
BENCHMARK(BM_FunctorRoundTrip_StdFunction<7>);
BENCHMARK(BM_FunctorRoundTrip_SmallFn<7>);

}  // namespace
