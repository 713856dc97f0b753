#include "harness/channels.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "core/invariants.h"
#include "harness/experiment.h"
#include "obs/trace.h"

namespace fl::harness {

MultiChannelResult run_multi_channel(const MultiChannelSpec& spec,
                                     ThreadPool* pool) {
    if (!spec.make_workload) {
        throw std::invalid_argument("run_multi_channel: no workload factory");
    }
    core::MultiChannelConfig config = spec.config;
    config.base.seed = spec.seed;
    core::MultiChannelNetwork engine(std::move(config));
    const std::size_t n = engine.channel_count();

    MultiChannelResult result;
    result.channels.resize(n);  // stable slots — sinks capture references

    // Per-channel setup in run_once's exact order: tx sink, audit, workload
    // driver, instrumentation.  Attach-only steps schedule no events and draw
    // no rng, so each channel's byte stream matches a standalone run_once.
    std::vector<std::unique_ptr<obs::audit::AuditAccountant>> audits(n);
    std::vector<std::unique_ptr<obs::TraceSink>> traces(n);
    std::vector<std::uint64_t> sink_records(n, 0);
    std::vector<std::unique_ptr<WorkloadDriver>> drivers;
    drivers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::FabricNetwork& net = engine.channel(i);
        ChannelRunResult& ch = result.channels[i];
        ch.id = engine.channel_id(i);

        net.set_tx_sink([&ch, &records = sink_records[i]](const client::TxRecord& r) {
            ++records;
            ch.metrics.record(r);
        });

        if (spec.audit) {
            audits[i] = make_audit(*spec.audit, net.config().channel);
            net.set_audit(audits[i].get());
        }

        Workload workload = spec.make_workload(i);
        const std::uint64_t cseed = core::channel_seed(spec.seed, i);
        drivers.push_back(std::make_unique<WorkloadDriver>(
            net, std::move(workload), Rng(cseed ^ 0x574B4C44ull)));
        drivers.back()->start();

        if (spec.capture_trace) {
            traces[i] = std::make_unique<obs::TraceSink>();
            // Tag only real multi-channel runs: a 1-channel capture must stay
            // byte-identical to the single-network harness.
            if (n > 1) traces[i]->set_channel(ch.id.value());
            net.set_trace_sink(traces[i].get());
        }
        if (spec.instrument) spec.instrument(net, i);
    }

    const auto drain_started = std::chrono::steady_clock::now();
    result.events_executed = engine.run(pool);
    result.drain_wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - drain_started)
                              .count();
    result.windows = engine.windows_executed();

    for (std::size_t i = 0; i < n; ++i) {
        core::FabricNetwork& net = engine.channel(i);
        ChannelRunResult& ch = result.channels[i];

        if (audits[i]) {
            // run_once finalizes at Simulator::now() after run(), which lands
            // on the last executed event; the windowed engine bumps now() to
            // the window boundary, so finalize at last_event_at() for parity.
            audits[i]->finalize(net.last_event_at());
            ch.audit = audits[i]->report();
        }

        ch.artifacts = capture_artifacts(
            net, ch.metrics, ch.audit ? &*ch.audit : nullptr, traces[i].get(),
            core::check_invariants(net, sink_records[i]));
    }

    result.meter = engine.meter();
    return result;
}

}  // namespace fl::harness
