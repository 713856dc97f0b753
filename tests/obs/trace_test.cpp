// TraceSink: span stitching, abort reasons, serialization shape, and the
// end-to-end wiring through a live FabricNetwork.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fabric_network.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/trace.h"

namespace fl::obs {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::from_nanos(ms * 1'000'000); }

TraceEvent ev(EventType type, std::int64_t t_ms, std::uint64_t tx) {
    TraceEvent e;
    e.at = at_ms(t_ms);
    e.type = type;
    e.tx = tx;
    return e;
}

/// A happy-path lifecycle for tx 7: submit 1ms, broadcast 3ms, block 0 cut
/// at 10ms, commit 12ms, complete 13ms.
void emit_lifecycle(TraceSink& sink) {
    sink.emit(ev(EventType::kSubmit, 1, 7));
    sink.emit(ev(EventType::kBroadcast, 3, 7));
    TraceEvent cut;
    cut.at = at_ms(10);
    cut.type = EventType::kBlockCut;
    cut.actor_kind = ActorKind::kOsn;
    cut.block = 0;
    cut.value = 1;
    sink.emit(cut);
    TraceEvent commit = ev(EventType::kCommit, 12, 7);
    commit.actor_kind = ActorKind::kPeer;
    commit.block = 0;
    commit.priority = 1;
    sink.emit(commit);
    TraceEvent complete = ev(EventType::kComplete, 13, 7);
    complete.block = 0;
    complete.priority = 1;
    sink.emit(complete);
}

TEST(TraceSinkTest, StitchesLifecycleSpans) {
    TraceSink sink;
    emit_lifecycle(sink);

    std::ostringstream os;
    sink.write_chrome_json(os);
    const std::string json = os.str();

    // All four pipeline spans present, on the tx-lifecycle process.
    EXPECT_NE(json.find(R"("name":"endorse")"), std::string::npos);
    EXPECT_NE(json.find(R"("name":"order")"), std::string::npos);
    EXPECT_NE(json.find(R"("name":"validate")"), std::string::npos);
    EXPECT_NE(json.find(R"("name":"notify")"), std::string::npos);
    EXPECT_NE(json.find(R"("name":"tx lifecycle")"), std::string::npos);
    // endorse span: ts=1ms (1000 us), dur=2ms (2000 us).
    EXPECT_NE(json.find(R"("ph":"X","pid":1,"tid":7,"ts":1000,"dur":2000)"),
              std::string::npos);
    // No abort anywhere.
    EXPECT_EQ(json.find("abort"), std::string::npos);
}

TEST(TraceSinkTest, AbortSpanCarriesReasonCode) {
    TraceSink sink;
    sink.emit(ev(EventType::kSubmit, 1, 9));
    sink.emit(ev(EventType::kBroadcast, 3, 9));
    TraceEvent cut;
    cut.at = at_ms(10);
    cut.type = EventType::kBlockCut;
    cut.block = 4;
    sink.emit(cut);
    TraceEvent abort = ev(EventType::kAbort, 12, 9);
    abort.actor_kind = ActorKind::kPeer;
    abort.block = 4;
    abort.priority = 2;
    abort.code = TxValidationCode::kMvccReadConflict;
    sink.emit(abort);

    std::ostringstream os;
    sink.write_chrome_json(os);
    const std::string json = os.str();
    EXPECT_NE(json.find(R"x("name":"validate (abort)")x"), std::string::npos);
    EXPECT_NE(json.find(R"("code":"MVCC_READ_CONFLICT")"), std::string::npos);
}

TEST(TraceSinkTest, ClientFailureBecomesFailedEndorseSpan) {
    TraceSink sink;
    sink.emit(ev(EventType::kSubmit, 1, 3));
    TraceEvent fail = ev(EventType::kClientFail, 5, 3);
    fail.code = TxValidationCode::kEndorsementPolicyFailure;
    sink.emit(fail);

    std::ostringstream os;
    sink.write_chrome_json(os);
    const std::string json = os.str();
    EXPECT_NE(json.find(R"x("name":"endorse (failed)")x"), std::string::npos);
    EXPECT_NE(json.find("ENDORSEMENT_POLICY_FAILURE"), std::string::npos);
    // The failed tx gets no downstream spans.
    EXPECT_EQ(json.find(R"("name":"order")"), std::string::npos);
}

TEST(TraceSinkTest, JsonlOneEventPerLineInEmissionOrder) {
    TraceSink sink;
    emit_lifecycle(sink);

    std::ostringstream os;
    sink.write_jsonl(os);
    const std::string text = os.str();

    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, sink.size());
    // First line is the submit, with the sentinel-valued fields omitted.
    EXPECT_EQ(text.substr(0, text.find('\n')),
              R"({"t_ns":1000000,"type":"submit","actor":"client","actor_id":0,"tx":7})");
    EXPECT_NE(text.find(R"("type":"block_cut")"), std::string::npos);
}

TEST(TraceSinkTest, EmptySinkStillWritesValidDocument) {
    TraceSink sink;
    std::ostringstream chrome;
    sink.write_chrome_json(chrome);
    EXPECT_NE(chrome.str().find("traceEvents"), std::string::npos);
    std::ostringstream jsonl;
    sink.write_jsonl(jsonl);
    EXPECT_TRUE(jsonl.str().empty());
}

// -- end-to-end wiring -------------------------------------------------------

core::NetworkConfig tiny_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.block_size = 10;
    cfg.channel.block_timeout = Duration::millis(100);
    cfg.endorsement_k = 2;
    return cfg;
}

harness::ExperimentSpec tiny_spec() {
    harness::ExperimentSpec spec;
    spec.config = tiny_config();
    spec.make_workload = [] {
        harness::Workload w;
        harness::LoadSpec load;
        load.client_index = 0;
        load.tps = 200;
        load.total_txs = 40;
        load.generate = harness::priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
        return w;
    };
    spec.runs = 1;
    return spec;
}

TEST(TraceWiringTest, NetworkEmitsFullLifecycle) {
    TraceSink sink;
    harness::ExperimentSpec spec = tiny_spec();
    spec.instrument = [&sink](core::FabricNetwork& net, unsigned run) {
        ASSERT_EQ(run, 0u);
        net.set_trace_sink(&sink);
    };
    const harness::RunResult result = harness::run_once(spec, 777);
    ASSERT_GT(result.metrics.committed_valid(), 0u);

    std::unordered_map<EventType, std::uint64_t> counts;
    for (const TraceEvent& e : sink.events()) ++counts[e.type];

    EXPECT_EQ(counts[EventType::kSubmit], 40u);
    // Every tx endorses at both peers.
    EXPECT_EQ(counts[EventType::kEndorseReply], 80u);
    EXPECT_EQ(counts[EventType::kBroadcast], 40u);
    EXPECT_EQ(counts[EventType::kConsolidate], 40u);
    EXPECT_EQ(counts[EventType::kEnqueue], 40u);
    EXPECT_EQ(counts[EventType::kDequeue], 40u);
    EXPECT_GT(counts[EventType::kBlockCut], 0u);
    // Commit/abort is emitted at both committing peers.
    EXPECT_EQ(counts[EventType::kCommit] + counts[EventType::kAbort], 80u);
    EXPECT_EQ(counts[EventType::kComplete], 40u);

    // The Chrome export covers every transaction's endorse span.
    std::ostringstream os;
    sink.write_chrome_json(os);
    const std::string json = os.str();
    std::size_t endorse_spans = 0;
    for (std::size_t pos = json.find(R"("name":"endorse")");
         pos != std::string::npos;
         pos = json.find(R"("name":"endorse")", pos + 1)) {
        ++endorse_spans;
    }
    EXPECT_EQ(endorse_spans, 40u);
}

TEST(TraceWiringTest, DetachRestoresUntracedBehaviour) {
    TraceSink sink;
    harness::ExperimentSpec spec = tiny_spec();
    spec.instrument = [&sink](core::FabricNetwork& net, unsigned) {
        net.set_trace_sink(&sink);
        net.set_trace_sink(nullptr);  // detach again before anything runs
    };
    const harness::RunResult result = harness::run_once(spec, 777);
    EXPECT_GT(result.metrics.committed_valid(), 0u);
    EXPECT_TRUE(sink.empty());
}

TEST(TraceWiringTest, TracingDoesNotChangeResults) {
    const harness::RunResult plain = harness::run_once(tiny_spec(), 4242);

    harness::ExperimentSpec traced = tiny_spec();
    traced.capture_trace = true;
    const harness::RunResult with_trace = harness::run_once(traced, 4242);

    // The captured trace is the only artifact that differs.
    EXPECT_FALSE(with_trace.artifacts.trace_jsonl.empty());
    EXPECT_EQ(harness::diff(plain.artifacts, with_trace.artifacts),
              std::vector<std::string>{"trace_jsonl"});
}

}  // namespace
}  // namespace fl::obs
