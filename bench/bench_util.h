// Shared helpers for the figure-reproduction harnesses.
//
// Each bench binary regenerates one table/figure of the paper's Section 8 as
// a plain-text table: one row per x-axis point, one column per algorithm.
// The EXPERIMENTS.md file records how each output maps onto the original
// figure.
#ifndef ELINK_BENCH_BENCH_UTIL_H_
#define ELINK_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hierarchical.h"
#include "baselines/spanning_forest.h"
#include "baselines/spectral.h"
#include "cluster/elink.h"
#include "common/status.h"
#include "data/dataset.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/simd.h"
#include "obs/run_report.h"
#include "proto/wire.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

// The CMake build type the harness was compiled under (set per target).
#ifndef ELINK_BENCH_BUILD_TYPE
#define ELINK_BENCH_BUILD_TYPE "unknown"
#endif

namespace elink {
namespace bench {

/// Dies loudly on an error status: bench harnesses have no recovery path.
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

/// Dies loudly on error results, like CheckOk.
template <typename T>
T Unwrap(Result<T> r, const char* what) {
  CheckOk(r.status(), what);
  return std::move(r).value();
}

/// Prints a row of right-aligned cells under 14-char columns.
inline void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%14s", c.c_str());
  std::printf("\n");
}

inline std::string Cell(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string Cell(uint64_t v) { return std::to_string(v); }
inline std::string Cell(int v) { return std::to_string(v); }

/// Runs independent trials across a small thread pool.
///
/// Trials are identified by index and must be self-contained: each writes
/// its outcome into a per-index slot the caller owns, and the caller merges
/// slots in index order after Run returns.  Because the merge order is the
/// submission order — never the completion order — the output is identical
/// for any thread count, including 1; `--threads` changes wall-clock only.
class ParallelTrialRunner {
 public:
  /// `threads` < 1 is clamped to 1 (serial).
  explicit ParallelTrialRunner(int threads)
      : threads_(threads < 1 ? 1 : threads) {}

  /// Invokes fn(0) .. fn(count-1), each exactly once, and blocks until all
  /// have returned.  With one thread (or one trial) this degenerates to a
  /// plain loop on the calling thread.
  void Run(int count, const std::function<void(int)>& fn) const {
    if (count <= 0) return;
    const int workers = threads_ < count ? threads_ : count;
    if (workers == 1) {
      for (int i = 0; i < count; ++i) fn(i);
      return;
    }
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&next, count, &fn] {
        for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          fn(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  int threads() const { return threads_; }

 private:
  int threads_;
};

/// Parses `--threads N` / `--threads=N` from a harness command line.
/// Defaults to 1: the serial and parallel paths print identical bytes, so
/// parallelism is strictly an opt-in for wall-clock.
inline int ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return std::atoi(argv[i] + 10);
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      return std::atoi(argv[i + 1]);
    }
  }
  return 1;
}

/// The value of a `--name value` / `--name=value` flag (the first one
/// given); nullptr when absent.
inline const char* FlagArg(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
  }
  return nullptr;
}

/// Parses a string flag; `default_value` (empty unless given) when absent.
inline std::string StringFlag(int argc, char** argv, const char* name,
                              const std::string& default_value = "") {
  const char* v = FlagArg(argc, argv, name);
  return v != nullptr ? v : default_value;
}

/// Parses an unsigned integer flag; `dflt` when absent.
inline uint64_t FlagValue(int argc, char** argv, const char* name,
                          uint64_t dflt) {
  const char* v = FlagArg(argc, argv, name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : dflt;
}

/// Parses a floating-point flag; `dflt` when absent.
inline double DoubleFlag(int argc, char** argv, const char* name,
                         double dflt) {
  const char* v = FlagArg(argc, argv, name);
  return v != nullptr ? std::strtod(v, nullptr) : dflt;
}

/// Pulls `"key": <number>` out of a JSON report written by a bench harness;
/// 0.0 when absent.  The reports are flat and self-written, so a full
/// parser is not needed.
inline double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  const size_t colon = json.find(':', at + needle.size());
  if (colon == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

/// The whole contents of `path`; nullopt when it cannot be opened.
inline std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// The machine a microbenchmark ran on.  Throughput numbers only compare on
/// like hardware, so every microbenchmark report carries this stamp; the
/// `--check-against` readers ignore it.
struct MachineStamp {
  std::string cpu_model;  // CPUID brand string; "unknown" off x86.
  unsigned vcpus = 0;     // Logical CPUs the process may see.
  std::string simd;       // The dispatched distance-kernel level.
  std::string compiler;
  std::string build_type;

  /// The stamp as the members of a flat JSON object, one per line, each
  /// line starting with `indent` and ending in a comma.
  std::string JsonMembers(const char* indent) const {
    std::string out;
    auto member = [&](const char* key, const std::string& json_value) {
      out += std::string(indent) + "\"" + key + "\": " + json_value + ",\n";
    };
    auto text = [](const std::string& s) {
      std::string quoted = "\"";
      quoted += obs::JsonEscape(s);
      quoted += '"';
      return quoted;
    };
    member("cpu_model", text(cpu_model));
    member("vcpus", std::to_string(vcpus));
    member("simd", text(simd));
    member("compiler", text(compiler));
    member("build_type", text(build_type));
    return out;
  }
};

inline MachineStamp CurrentMachine() {
  MachineStamp m;
  m.cpu_model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    if (b != std::string::npos) m.cpu_model = s.substr(b);
  }
#endif
  m.vcpus = std::thread::hardware_concurrency();
  m.simd = SimdLevelName(ActiveSimdLevel());
#if defined(__GNUC__) && !defined(__clang__)
  m.compiler = "GCC " __VERSION__;
#else
  m.compiler = __VERSION__;  // Clang's names the compiler itself.
#endif
  m.build_type = ELINK_BENCH_BUILD_TYPE;
  return m;
}

/// Writes run reports as JSON lines (one RunReport object per line), the
/// uniform machine-readable sidecar next to a bench's plain-text table.
/// Dies loudly on I/O failure, like Unwrap.
inline void WriteRunReports(const std::string& path,
                            const std::vector<obs::RunReport>& reports) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::abort();
  }
  for (const obs::RunReport& r : reports) f << r.ToJson();
  if (!f) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(stderr, "wrote %zu run report(s) to %s\n", reports.size(),
               path.c_str());
}

/// The four Section-8.3 clustering algorithms run on one dataset at one
/// delta: cluster counts and total clustering communication (paper message
/// units).  ELink cost includes the leader-backbone construction, as
/// Section 8.2 prescribes.
struct AlgorithmOutcomes {
  int elink_clusters = 0;
  uint64_t elink_implicit_units = 0;
  uint64_t elink_explicit_units = 0;
  int spectral_clusters = 0;
  int hierarchical_clusters = 0;
  uint64_t hierarchical_units = 0;
  int forest_clusters = 0;
  uint64_t forest_units = 0;
  // Real bytes-on-wire alongside the paper's unit counts: the ELink figures
  // come straight off the simulated network; the baselines come from their
  // cost models' framed-message estimates.
  uint64_t elink_implicit_bytes = 0;
  uint64_t elink_explicit_bytes = 0;
  uint64_t hierarchical_bytes = 0;
  uint64_t forest_bytes = 0;
  Clustering elink_clustering;
  Clustering hierarchical_clustering;
  Clustering forest_clustering;
};

/// Runs all four algorithms.  `run_spectral` can be disabled for large
/// sweeps where the centralized baseline dominates runtime.
inline AlgorithmOutcomes RunAllAlgorithms(const SensorDataset& ds,
                                          double delta, uint64_t seed,
                                          bool run_spectral = true) {
  AlgorithmOutcomes out;

  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.seed = seed;
  ElinkResult imp = Unwrap(RunElink(ds, ecfg, ElinkMode::kImplicit), "elink");
  out.elink_clusters = imp.clustering.num_clusters();
  MessageStats backbone_cost;
  Backbone::Build(imp.clustering, ds.topology.adjacency, &backbone_cost);
  out.elink_implicit_units =
      imp.stats.total_units() + backbone_cost.total_units();
  // Backbone construction ships one leader id per hop; its cost model does
  // not frame messages itself, so charge the minimal one-int frame here.
  const uint64_t backbone_bytes =
      backbone_cost.total_units() * wire::NominalFrameSize(1, 0);
  out.elink_implicit_bytes = imp.stats.total_bytes() + backbone_bytes;
  out.elink_clustering = std::move(imp.clustering);

  ElinkResult exp =
      Unwrap(RunElink(ds, ecfg, ElinkMode::kExplicit), "elink-explicit");
  out.elink_explicit_units =
      exp.stats.total_units() + backbone_cost.total_units();
  out.elink_explicit_bytes = exp.stats.total_bytes() + backbone_bytes;

  if (run_spectral) {
    SpectralConfig scfg;
    scfg.delta = delta;
    scfg.seed = seed;
    SpectralResult sp = Unwrap(
        SpectralDeltaClustering(ds.topology.adjacency, ds.features,
                                *ds.metric, scfg),
        "spectral");
    out.spectral_clusters = sp.clustering.num_clusters();
  }

  HierarchicalResult hc = Unwrap(
      HierarchicalClustering(ds.topology.adjacency, ds.features, *ds.metric,
                             delta),
      "hierarchical");
  out.hierarchical_clusters = hc.clustering.num_clusters();
  out.hierarchical_units = hc.stats.total_units();
  out.hierarchical_bytes = hc.stats.total_bytes();
  out.hierarchical_clustering = std::move(hc.clustering);

  SpanningForestResult sf = Unwrap(
      SpanningForestClustering(ds.topology.adjacency, ds.features, *ds.metric,
                               delta),
      "spanning-forest");
  out.forest_clusters = sf.clustering.num_clusters();
  out.forest_units = sf.stats.total_units();
  out.forest_bytes = sf.stats.total_bytes();
  out.forest_clustering = std::move(sf.clustering);
  return out;
}

}  // namespace bench
}  // namespace elink

#endif  // ELINK_BENCH_BENCH_UTIL_H_
