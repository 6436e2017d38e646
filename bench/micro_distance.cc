// Micro-benchmark of the distance kernel layer: scalar oracle vs each
// dispatched SIMD path over the dimensionalities and batch sizes the
// simulator actually uses (Tao d=4, terrain d=2, sweeps up to d=8; batches
// from a handful of M-tree children to whole-network oracle scans).
//
// Writes BENCH_distance.json (override with --out): for every (dim, batch)
// cell, million distances per second through the scalar kernel and through
// each SIMD level the host supports, plus the speedup of the best level,
// under the machine stamp (cpu_model, vcpus, simd, compiler, build_type).
// Results are throughput-only — bit-identity of the kernels is asserted by
// tests/simd_kernel_test.cc, not here (though this harness still verifies
// checksum equality across paths as a cheap tripwire).
//
// `--reps N` scales the measurement loop; the ctest smoke run uses a tiny
// rep count so the harness is exercised on every test run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "metric/distance.h"
#include "metric/feature_pool.h"
#include "metric/simd.h"

using namespace elink;
using namespace elink::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Million distances per second for one kernel over `reps` sweeps of the
/// pool; `sink` accumulates a checksum so the loop cannot be elided.
double MeasureMdps(WeightedL2SoAFn fn, const FeaturePool& pool,
                   const std::vector<double>& q,
                   const std::vector<double>& w, uint64_t reps,
                   std::vector<double>* out, double* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < reps; ++r) {
    fn(pool.soa(), pool.stride(), pool.size(), pool.dim(), q.data(), w.data(),
       out->data());
    *sink += (*out)[r % pool.size()];
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total =
      static_cast<double>(reps) * static_cast<double>(pool.size());
  return total / Seconds(t0, t1) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t reps = FlagValue(argc, argv, "--reps", 2000);
  std::string out_path = StringFlag(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_distance.json";

  const int dims[] = {2, 4, 8};
  const size_t batches[] = {8, 64, 1024};
  const SimdLevel active = ActiveSimdLevel();
  std::printf("dispatched level: %s\n", SimdLevelName(active));

  std::string json = "{\n" + CurrentMachine().JsonMembers("  ");
  json += "  \"level\": \"";
  json += SimdLevelName(active);
  json += "\",\n  \"cells\": [\n";
  bool first = true;
  double sink = 0.0;

  for (const int dim : dims) {
    for (const size_t batch : batches) {
      Rng rng(7u * static_cast<uint64_t>(dim) + batch);
      std::vector<Feature> feats(batch, Feature(dim));
      for (auto& f : feats) {
        for (double& v : f) v = rng.Uniform(-10.0, 10.0);
      }
      std::vector<double> q(dim), w(dim);
      for (double& v : q) v = rng.Uniform(-10.0, 10.0);
      for (double& v : w) v = rng.Uniform(0.1, 2.0);
      const FeaturePool pool(feats);
      std::vector<double> out(batch), ref(batch);

      const double scalar_mdps = MeasureMdps(
          WeightedL2SoAAt(SimdLevel::kScalar), pool, q, w, reps, &ref, &sink);
      double best_mdps = scalar_mdps;
      const char* best_name = "scalar";
      std::string cell_levels;
      for (const SimdLevel lvl : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
        const WeightedL2SoAFn fn = WeightedL2SoAAt(lvl);
        if (fn == nullptr) continue;
        const double mdps = MeasureMdps(fn, pool, q, w, reps, &out, &sink);
        // Tripwire: every path must produce the same bytes as the scalar
        // oracle (the real assertion lives in simd_kernel_test).
        if (std::memcmp(out.data(), ref.data(),
                        batch * sizeof(double)) != 0) {
          std::fprintf(stderr, "FAIL: %s kernel diverged from scalar\n",
                       SimdLevelName(lvl));
          return 1;
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf), ", \"%s_mdps\": %.1f",
                      SimdLevelName(lvl), mdps);
        cell_levels += buf;
        if (mdps > best_mdps) {
          best_mdps = mdps;
          best_name = SimdLevelName(lvl);
        }
      }

      std::printf(
          "dim %d batch %5zu: scalar %8.1f Mdist/s, best %-6s %8.1f "
          "Mdist/s (%.2fx)\n",
          dim, batch, scalar_mdps, best_name, best_mdps,
          best_mdps / scalar_mdps);
      char cell[256];
      std::snprintf(cell, sizeof(cell),
                    "%s    {\"dim\": %d, \"batch\": %zu, \"scalar_mdps\": "
                    "%.1f%s, \"speedup\": %.2f}",
                    first ? "" : ",\n", dim, batch, scalar_mdps,
                    cell_levels.c_str(), best_mdps / scalar_mdps);
      json += cell;
      first = false;
    }
  }
  json += "\n  ]\n}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (sink == -1.0) std::printf("impossible\n");
  return 0;
}
