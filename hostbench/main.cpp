// hostbench — one workload per invocation, measured for a fixed host time.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//
// A benchmark seed N stands for kSubSeeds network seeds.  Repetition i runs
// network seed N * kSubSeeds + i % kSubSeeds, so every sub-seed runs at
// least once and the simulated outputs are averaged over all of them: a
// single network seed fixes per-run draws such as the OSN clock skews,
// which move knee and failover latencies by 10-20 %.
//
// --trace 0 repeats the workload (untraced) for S seconds and prints the
// end-to-end metrics: host timings as medians over the repetitions (set-up
// as the mean of per-repetition medians), simulated outputs as means over
// the sub-seeds.  --trace 1 repeats pairs
// of one untraced and one traced repetition: the traced one drains with
// Simulator::step() and charges host time to the layer owning each event's
// scheduling domain, then replays peer 0's chain through the peer, ledger
// and crypto layers; it prints the per-layer metrics.
//
// Every repetition passes the safety checks, and every repetition of one
// network seed must reproduce the same digest of its simulated outputs and
// ledger fingerprints; the traced drain must reproduce the untraced one and
// the replay must reproduce the committed codes, state and chain.  The last
// stdout line is one JSON object: correct, attempted (transactions
// submitted over all repetitions), failed (those submitted in a repetition
// that failed a check) and metrics.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace {

using namespace hostbench;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSubSeeds = 4;
/// Set-up samples per repetition: at most this many, within this much
/// set-up time.
constexpr std::size_t kSetupSamplesPerRep = 51;
constexpr double kSetupBudgetPerRepS = 0.25;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "hostbench: " << error
              << "\nusage: hostbench --workload NAME --seed N --seconds S --trace 0|1"
                 "\nworkloads:";
    for (const std::string& w : workload_names()) std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size()) {
        usage("bad value for " + flag + ": " + text);
    }
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parse_u64(flag, value);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parse_u64(flag, value));
        } else if (flag == "--trace") {
            const std::uint64_t t = parse_u64(flag, value);
            if (t > 1) usage("--trace takes 0 or 1");
            a.trace = static_cast<int>(t);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
        usage("unknown workload " + a.workload);
    }
    return a;
}

std::uint64_t network_seed(std::uint64_t seed, std::size_t rep) {
    return seed * kSubSeeds + rep % kSubSeeds;
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Repeats `body(rep)` at least `min_reps` times, then while `seconds`
/// have not passed, starting a repetition only when the previous one's
/// duration still fits.
template <typename Body>
void repeat_for(double seconds, std::size_t min_reps, Body body) {
    const auto start = Clock::now();
    double last_s = 0.0;
    for (std::size_t rep = 0;
         rep < min_reps || seconds_since(start) + last_s <= seconds; ++rep) {
        const auto began = Clock::now();
        body(rep);
        last_s = seconds_since(began);
    }
}

/// One untraced repetition's host timings and outcome.
struct Rep {
    double build_s = 0.0;
    double schedule_s = 0.0;
    double seed_state_s = 0.0;
    double setup_s = 0.0;
    double drain_s = 0.0;
    double check_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    SimOutcome outcome;
};

Rep plain_rep(const WorkloadDef& def, std::uint64_t seed) {
    const double cpu0 = process_cpu_s();
    Run run(def, seed);
    run.drain();
    Rep r;
    r.outcome = run.check();
    r.cpu_s = process_cpu_s() - cpu0;
    r.build_s = run.build_s;
    r.schedule_s = run.schedule_s;
    r.seed_state_s = run.seed_state_s;
    r.setup_s = run.setup_s();
    r.drain_s = run.drain_s;
    r.check_s = run.check_s;
    r.wall_s = r.setup_s + r.drain_s + r.check_s;
    return r;
}

/// Correctness bookkeeping shared by both modes.
struct Verdict {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::uint64_t, std::uint64_t> digests;  ///< network seed -> digest

    /// Records one repetition of `network_seed`; `problems` are its failed checks.
    void add(std::uint64_t network_seed, const SimOutcome& o,
             std::vector<std::string> problems) {
        const auto [it, first] = digests.emplace(network_seed, o.digest());
        if (!first && it->second != o.digest()) {
            problems.emplace_back("digest_differs_between_repetitions");
        }
        attempted += o.submitted;
        if (!problems.empty()) {
            failed += o.submitted;
            for (const std::string& p : problems) std::cout << "CHECK FAILED: " << p << '\n';
        }
    }
};

std::string format_number(double v) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

template <std::size_t N>
void print_result(const Verdict& verdict, const std::array<MetricDef, N>& catalog,
                  const std::map<std::string, double>& values) {
    bool correct = verdict.failed == 0 && verdict.attempted > 0;
    std::ostringstream metrics;
    for (std::size_t i = 0; i < N; ++i) {
        const std::string name(catalog[i].name);
        const auto it = values.find(name);
        double v = it == values.end() ? 0.0 : it->second;
        if (it == values.end() || !std::isfinite(v)) {
            std::cout << "CHECK FAILED: metric " << name << " not measured\n";
            correct = false;
            v = 0.0;
        }
        metrics << (i ? ", " : "") << '"' << name << "\": {\"value\": " << format_number(v)
                << ", \"unit\": \"" << catalog[i].unit << "\"}";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << verdict.attempted
              << ", \"failed\": " << verdict.failed << ", \"metrics\": {" << metrics.str()
              << "}}" << std::endl;
}

void print_rep(const char* kind, std::uint64_t network_seed, const Rep& r) {
    std::cout << kind << " seed " << network_seed << ": setup " << r.setup_s << " s, drain "
              << r.drain_s << " s, check " << r.check_s << " s, cpu " << r.cpu_s << " s, "
              << r.outcome.terminal << " txs, " << r.outcome.events << " events\n";
}

/// Mean of `field` over the first kSubSeeds outcomes (one per sub-seed).
template <typename Field>
double sub_seed_mean(const std::vector<SimOutcome>& outcomes, Field field) {
    double sum = 0.0;
    for (std::size_t i = 0; i < kSubSeeds; ++i) sum += field(outcomes[i]);
    return sum / static_cast<double>(kSubSeeds);
}

void run_timed(const WorkloadDef& def, const Args& args) {
    Verdict verdict;
    std::vector<double> setup, tx_per_s, cpu, wall;
    std::vector<SimOutcome> outcomes;
    repeat_for(args.seconds, kSubSeeds, [&](std::size_t rep) {
        const std::uint64_t seed = network_seed(args.seed, rep);
        const Rep r = plain_rep(def, seed);
        verdict.add(seed, r.outcome, r.outcome.violations);
        print_rep("rep", seed, r);
        // Set-up takes under 0.1 ms on two workloads, and on a shared host
        // its speed flips by up to 2x from one moment to the next.  So each
        // repetition also samples set-up alone, within a budget, and the run
        // averages the repetitions' medians.
        std::vector<double> window = {r.setup_s};
        for (double spent = 0.0; window.size() < kSetupSamplesPerRep &&
                                 spent + r.setup_s < kSetupBudgetPerRepS;) {
            const Run run(def, seed);
            window.push_back(run.setup_s());
            spent += run.setup_s();
        }
        setup.push_back(median(window));
        tx_per_s.push_back(ratio(static_cast<double>(r.outcome.terminal), r.drain_s));
        cpu.push_back(r.cpu_s);
        wall.push_back(r.wall_s);
        outcomes.push_back(r.outcome);
    });
    std::map<std::string, double> v;
    v["host_tx_per_s"] = median(tx_per_s);
    v["cpu_s"] = median(cpu);
    v["wall_s"] = median(wall);
    v["setup_s"] = std::accumulate(setup.begin(), setup.end(), 0.0) /
                   static_cast<double>(setup.size());
    v["peak_rss_mib"] = peak_rss_mib();
    v["valid_frac"] = sub_seed_mean(outcomes, [](const SimOutcome& o) {
        return ratio(static_cast<double>(o.valid), static_cast<double>(o.submitted));
    });
    v["sim_tps"] = sub_seed_mean(outcomes, [](const SimOutcome& o) { return o.sim_tps; });
    v["sim_latency_p50_s"] =
        sub_seed_mean(outcomes, [](const SimOutcome& o) { return o.latency_p50_s; });
    v["sim_latency_p99_s"] =
        sub_seed_mean(outcomes, [](const SimOutcome& o) { return o.latency_p99_s; });
    v["sim_latency_p99_top_s"] =
        sub_seed_mean(outcomes, [](const SimOutcome& o) { return o.latency_p99_top_s; });
    v["sim_max_commit_gap_s"] =
        sub_seed_mean(outcomes, [](const SimOutcome& o) { return o.max_commit_gap_s; });
    std::cout << "workload " << def.name << " seed " << args.seed << ": " << outcomes.size()
              << " repetitions\n";
    print_result(verdict, kEndToEnd, v);
}

void run_traced(const WorkloadDef& def, const Args& args) {
    Verdict verdict;
    std::vector<SimOutcome> traced;
    std::map<std::string, std::vector<double>> samples;
    auto sample = [&samples](const char* name, double value) {
        samples[name].push_back(value);
    };
    repeat_for(args.seconds, 1, [&](std::size_t rep) {
        const std::uint64_t seed = network_seed(args.seed, rep);
        const Rep p = plain_rep(def, seed);
        verdict.add(seed, p.outcome, p.outcome.violations);
        print_rep("plain", seed, p);

        Run run(def, seed);
        run.drain_stepped();
        const SimOutcome o = run.check();
        const ReplayTimes replay = run.replay();
        std::vector<std::string> problems = o.violations;
        problems.insert(problems.end(), replay.mismatches.begin(), replay.mismatches.end());
        verdict.add(seed, o, std::move(problems));

        const double txs = static_cast<double>(o.terminal);
        const LayerTimes& lt = run.layers;
        auto host_us = [&](Layer l) { return ratio(lt.at(l), txs) * 1e6; };
        auto events = [&](Layer l) { return ratio(static_cast<double>(lt.events_of(l)), txs); };
        sample("peer.host_us_per_tx", host_us(Layer::kPeer));
        sample("peer.events_per_tx", events(Layer::kPeer));
        sample("client.host_us_per_tx", host_us(Layer::kClient));
        sample("client.events_per_tx", events(Layer::kClient));
        sample("orderer.host_us_per_tx", host_us(Layer::kOrderer));
        sample("orderer.events_per_tx", events(Layer::kOrderer));
        sample("mq.host_us_per_tx", host_us(Layer::kMq));
        sample("raft.host_us_per_tx", host_us(Layer::kRaft));
        sample("raft.events_per_tx", events(Layer::kRaft));
        const double block_txs = static_cast<double>(o.block_txs);
        sample("peer.validate_us_per_tx", ratio(replay.validate_s, block_txs) * 1e6);
        sample("ledger.apply_us_per_tx", ratio(replay.apply_s, block_txs) * 1e6);
        sample("ledger.append_us_per_block",
               ratio(replay.append_s, static_cast<double>(o.blocks)) * 1e6);
        sample("crypto.verify_us",
               ratio(replay.verify_s, static_cast<double>(replay.verifies)) * 1e6);
        sample("sim.host_ns_per_event",
               ratio(p.drain_s, static_cast<double>(p.outcome.events)) * 1e9);
        sample("harness.seed_state_s", p.seed_state_s);
        sample("harness.schedule_s", p.schedule_s);
        sample("core.build_s", p.build_s);
        sample("core.check_s", p.check_s);
        sample("trace.overhead_frac", ratio(run.drain_s, p.drain_s) - 1.0);
        sample("trace.coverage_frac", ratio(lt.attributed(), run.drain_s));
        std::cout << "traced seed " << seed << ": drain " << run.drain_s << " s;";
        for (std::size_t l = 0; l < kLayerCount; ++l) {
            std::cout << ' ' << layer_name(static_cast<Layer>(l)) << ' '
                      << ratio(lt.seconds[l], run.drain_s) * 100.0 << '%';
        }
        std::cout << "; replay validate " << replay.validate_s << " s, apply "
                  << replay.apply_s << " s, append " << replay.append_s << " s, verify "
                  << replay.verify_s << " s\n";
        traced.push_back(o);
    });

    std::map<std::string, double> v;
    for (const auto& [name, values] : samples) v[name] = median(values);
    // Simulated counts come from the first pair (network seed N * kSubSeeds).
    const SimOutcome& o = traced.front();
    const double txs = static_cast<double>(o.terminal);
    const double block_txs = static_cast<double>(o.block_txs);
    const double peers = static_cast<double>(def.config.total_peers());
    // Each endorsement is checked once by the submitting client and once by
    // every committing peer.
    v["crypto.verifies_per_tx"] =
        ratio(static_cast<double>(o.endorsements), block_txs) * (peers + 1.0);
    v["orderer.txs_per_block"] = ratio(block_txs, static_cast<double>(o.blocks));
    v["raft.leader_changes"] = static_cast<double>(o.leader_changes);
    v["raft.elections"] = static_cast<double>(o.elections);
    v["client.resubmissions_per_tx"] = ratio(static_cast<double>(o.resubmissions), txs);
    v["client.endorse_retries_per_tx"] = ratio(static_cast<double>(o.endorse_retries), txs);
    v["sim.events_per_tx"] = ratio(static_cast<double>(o.events), txs);
    v["peer.valid_ratio"] = ratio(static_cast<double>(o.block_valid), block_txs);
    v["client.endorse_phase_p99_s"] = o.endorse_phase_p99_s;
    v["orderer.ordering_phase_p99_s"] = o.ordering_phase_p99_s;
    v["peer.validate_phase_p99_s"] = o.validate_phase_p99_s;
    v["failed_frac"] =
        ratio(static_cast<double>(o.submitted - o.valid), static_cast<double>(o.submitted));
    v["txs_attempted"] = static_cast<double>(o.submitted);
    std::cout << "workload " << def.name << " seed " << args.seed << ": " << traced.size()
              << " traced pairs\n";
    print_result(verdict, kPerLayer, v);
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        const WorkloadDef def = make_workload(args.workload);
        if (args.trace == 0) {
            run_timed(def, args);
        } else {
            run_traced(def, args);
        }
    } catch (const std::exception& e) {
        std::cerr << "hostbench: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
