// QPS + tail-latency benchmark of the concurrent serving layer (elink_serve).
//
// Real client threads (default 4) replay Zipf-skewed range/safe-path
// workloads against one ServeSession while a writer thread keeps publishing
// feature updates (epoch bumps + cache invalidation) underneath them — the
// serving system's steady state, not a quiesced read-only snapshot.
//
// Two load modes over the same deterministic op streams:
//   closed loop (default)      every client issues its next op as soon as
//                              the previous answer returns; measures peak
//                              sustainable throughput
//   open loop (--open-qps R)   ops fire on a Poisson schedule at R ops/sec
//                              per client; measures latency under a fixed
//                              offered load (queueing delay included)
//
// Writes a RunReport-based JSON (BENCH_serve.json by default, --out to
// override) with top-level-greppable parameters:
//   qps              answers served per wall-clock second, all clients
//   p50_us/p99_us/p999_us  per-op latency percentiles (microseconds)
//   hit_p50_us, range_miss_p50_us, path_miss_p50_us
//                    per-stage medians: cache hits, and misses computed on
//                    the pinned view, split by query kind
//   cache_hit_rate   hits / (hits+misses) — must be > 0 on the skewed mix
//   cpu_model, vcpus, simd, compiler, build_type
//                    the machine stamp
// plus the full serve counter ledger and log2 latency histograms in the
// metrics section: serve.latency_us over every op, and
// serve.latency_us.{hit,range_miss,path_miss} per stage.
//
// `--check-against <baseline.json>` (alias `--check-serve-against`) is the
// perf gate: exits non-zero when QPS regressed more than 10% against the
// committed BENCH_serve.json, or when the cache hit rate collapsed to zero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/terrain.h"
#include "obs/run_report.h"
#include "serve/report.h"
#include "serve/session.h"
#include "serve/workload.h"

using namespace elink;
using namespace elink::bench;

namespace {

double Percentile(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_us.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = lo + 1 < sorted_us.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return sorted_us[lo] * (1.0 - frac) + sorted_us[hi] * frac;
}

/// Where an op's answer came from: the cache, or a computation on the
/// pinned view (split by query kind).
enum Stage { kHit, kRangeMiss, kPathMiss, kNumStages };
const char* const kStageNames[kNumStages] = {"hit", "range_miss",
                                             "path_miss"};

struct ServeOutcome {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double hit_rate = 0.0;
  uint64_t answers = 0;
  uint64_t publishes = 0;
  std::vector<double> latencies_us;  // Merged, sorted.
  std::vector<double> stage_us[kNumStages];  // Per stage, merged, sorted.
  serve::ServeCounters counters;
};

ServeOutcome RunServeBench(int nodes, int clients, int ops_per_client,
                           double open_qps, uint64_t seed) {
  TerrainConfig tcfg;
  tcfg.num_nodes = nodes;
  tcfg.radio_range_fraction = 0.12;
  tcfg.seed = 21;
  auto ds_r = MakeTerrainDataset(tcfg);
  if (!ds_r.ok()) {
    std::fprintf(stderr, "terrain: %s\n", ds_r.status().ToString().c_str());
    std::abort();
  }
  const SensorDataset ds = std::move(ds_r).value();

  ClusteredSensorNetwork::Options nopts;
  nopts.delta = 0.3 * FeatureDiameter(ds);
  nopts.seed = 5;
  auto net_r = ClusteredSensorNetwork::Build(ds, nopts);
  if (!net_r.ok()) {
    std::fprintf(stderr, "network: %s\n", net_r.status().ToString().c_str());
    std::abort();
  }
  auto net = std::move(net_r).value();
  serve::ServeSession session(net.get(), serve::ServeFrontend::Options{});

  serve::WorkloadConfig wcfg;
  wcfg.num_clients = clients;
  wcfg.ops_per_client = ops_per_client;
  wcfg.predicate_pool = 64;
  wcfg.zipf_s = 1.1;            // Skewed: repeats feed the cache.
  wcfg.unique_fraction = 0.05;  // Plus a trickle of guaranteed misses.
  wcfg.open_loop_qps = open_qps > 0.0 ? open_qps : 2000.0;
  serve::WorkloadGenerator gen(ds.features, nodes, wcfg, seed);

  std::vector<std::vector<double>> per_client_us(clients);
  std::vector<std::vector<Stage>> per_client_stage(clients);
  std::atomic<bool> clients_done{false};

  const auto bench_t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<serve::WorkloadOp> ops = gen.ClientOps(c);
      const std::vector<double> arrivals =
          open_qps > 0.0 ? gen.ArrivalOffsets(c) : std::vector<double>{};
      std::vector<double>& lat = per_client_us[c];
      std::vector<Stage>& stage = per_client_stage[c];
      lat.reserve(ops.size());
      stage.reserve(ops.size());
      const auto serve_op = [&session](const serve::WorkloadOp& op) {
        if (op.is_range) {
          return session.frontend().Range(op.feature, op.scalar).from_cache
                     ? kHit
                     : kRangeMiss;
        }
        return session.frontend()
                       .SafePath(op.source, op.destination, op.feature,
                                 op.scalar)
                       .from_cache
                   ? kHit
                   : kPathMiss;
      };
      const auto start = std::chrono::steady_clock::now();
      for (size_t k = 0; k < ops.size(); ++k) {
        auto due = std::chrono::steady_clock::time_point::max();
        if (open_qps > 0.0) {
          // Open loop: wait for the scheduled send time; latency includes
          // any backlog behind a slow answer (coordinated-omission-free).
          due = start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(arrivals[k]));
          std::this_thread::sleep_until(due);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const Stage st = serve_op(ops[k]);
        const auto t2 = std::chrono::steady_clock::now();
        stage.push_back(st);
        lat.push_back(std::chrono::duration<double, std::micro>(
                          t2 - std::min(t1, due))
                          .count());
      }
    });
  }

  // Writer: publish feature nudges for the whole measurement window, so
  // epoch bumps and invalidation sweeps overlap the query load.
  std::thread writer([&] {
    Rng rng(7);
    while (!clients_done.load(std::memory_order_acquire)) {
      const int node = static_cast<int>(rng.UniformInt(nodes));
      Feature f = net->feature(node);
      f[0] += rng.Uniform(-0.005, 0.005);
      session.UpdateFeatureAndPublish(node, f);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : threads) t.join();
  const auto bench_t1 = std::chrono::steady_clock::now();
  clients_done.store(true, std::memory_order_release);
  writer.join();

  ServeOutcome out;
  for (int c = 0; c < clients; ++c) {
    const std::vector<double>& lat = per_client_us[c];
    out.latencies_us.insert(out.latencies_us.end(), lat.begin(), lat.end());
    for (size_t k = 0; k < lat.size(); ++k) {
      out.stage_us[per_client_stage[c][k]].push_back(lat[k]);
    }
  }
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  for (std::vector<double>& us : out.stage_us) {
    std::sort(us.begin(), us.end());
  }
  out.answers = out.latencies_us.size();
  const double secs =
      std::chrono::duration<double>(bench_t1 - bench_t0).count();
  out.qps = secs > 0.0 ? static_cast<double>(out.answers) / secs : 0.0;
  out.p50_us = Percentile(out.latencies_us, 0.50);
  out.p99_us = Percentile(out.latencies_us, 0.99);
  out.p999_us = Percentile(out.latencies_us, 0.999);
  out.counters = session.frontend().Counters();
  out.publishes = out.counters.publishes;
  const uint64_t looked_up = out.counters.cache.hits + out.counters.cache.misses;
  out.hit_rate = looked_up > 0 ? static_cast<double>(out.counters.cache.hits) /
                                     static_cast<double>(looked_up)
                               : 0.0;
  return out;
}

/// Perf gate: QPS within 10% of the committed baseline, cache still hitting.
bool CheckAgainst(const std::string& baseline_path, const ServeOutcome& run) {
  const std::string json = ReadWholeFile(baseline_path).value_or("");
  if (json.empty()) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return false;
  }
  const double base_qps = JsonNumber(json, "qps");
  if (base_qps <= 0.0) {
    std::fprintf(stderr, "baseline %s has no qps\n", baseline_path.c_str());
    return false;
  }
  const double ratio = run.qps / base_qps;
  std::printf("check: qps %.0f vs baseline %.0f (%.1f%%)\n", run.qps,
              base_qps, 100.0 * ratio);
  bool ok = true;
  if (ratio < 0.9) {
    std::fprintf(stderr, "FAIL: qps dropped more than 10%% against %s\n",
                 baseline_path.c_str());
    ok = false;
  }
  if (run.hit_rate <= 0.0) {
    std::fprintf(stderr,
                 "FAIL: cache hit rate is zero on the skewed workload\n");
    ok = false;
  }
  if (ok) std::printf("check: serve OK (within 10%% of baseline)\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = static_cast<int>(FlagValue(argc, argv, "--nodes", 200));
  const int clients = static_cast<int>(FlagValue(argc, argv, "--clients", 4));
  const int ops = static_cast<int>(FlagValue(argc, argv, "--ops", 20000));
  const double open_qps = DoubleFlag(argc, argv, "--open-qps", 0.0);
  const uint64_t seed = FlagValue(argc, argv, "--seed", 17);
  std::string out_path = StringFlag(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_serve.json";

  const ServeOutcome run = RunServeBench(nodes, clients, ops, open_qps, seed);

  std::printf("mode                %12s\n",
              open_qps > 0.0 ? "open-loop" : "closed-loop");
  std::printf("answers             %12llu\n",
              static_cast<unsigned long long>(run.answers));
  std::printf("qps                 %12.0f\n", run.qps);
  std::printf("p50 latency (us)    %12.1f\n", run.p50_us);
  std::printf("p99 latency (us)    %12.1f\n", run.p99_us);
  std::printf("p99.9 latency (us)  %12.1f\n", run.p999_us);
  for (int st = 0; st < kNumStages; ++st) {
    std::printf("%-10s p50 (us) %10.1f  (%zu ops)\n", kStageNames[st],
                Percentile(run.stage_us[st], 0.50), run.stage_us[st].size());
  }
  std::printf("cache hit rate      %12.3f\n", run.hit_rate);
  std::printf("publishes overlapped%12llu\n",
              static_cast<unsigned long long>(run.publishes));

  obs::RunReport report;
  report.protocol = "serve";
  report.seed = seed;
  report.SetParam("nodes", nodes);
  report.SetParam("clients", clients);
  report.SetParam("ops_per_client", ops);
  report.SetParam("open_qps", open_qps);
  report.SetParam("qps", run.qps);
  report.SetParam("p50_us", run.p50_us);
  report.SetParam("p99_us", run.p99_us);
  report.SetParam("p999_us", run.p999_us);
  for (int st = 0; st < kNumStages; ++st) {
    report.SetParam(std::string(kStageNames[st]) + "_p50_us",
                    Percentile(run.stage_us[st], 0.50));
  }
  report.SetParam("cache_hit_rate", run.hit_rate);
  report.SetParam("publishes", run.publishes);
  const MachineStamp machine = CurrentMachine();
  report.SetParam("cpu_model", machine.cpu_model);
  report.SetParam("vcpus", static_cast<uint64_t>(machine.vcpus));
  report.SetParam("simd", machine.simd);
  report.SetParam("compiler", machine.compiler);
  report.SetParam("build_type", machine.build_type);
  serve::ExportCounters(run.counters, "serve.", &report.metrics);
  for (double us : run.latencies_us) {
    report.metrics.RecordHistogram("serve.latency_us", us);
  }
  for (int st = 0; st < kNumStages; ++st) {
    const std::string name = std::string("serve.latency_us.") + kStageNames[st];
    for (double us : run.stage_us[st]) {
      report.metrics.RecordHistogram(name, us);
    }
  }
  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  std::string baseline = StringFlag(argc, argv, "--check-against");
  if (baseline.empty()) {
    baseline = StringFlag(argc, argv, "--check-serve-against");
  }
  if (!baseline.empty() && !CheckAgainst(baseline, run)) return 1;
  return 0;
}
