// Micro-benchmark of the simulator core hot path: event queue dispatch and
// the Network send/broadcast path.  Unlike the figure harnesses this measures
// wall-clock throughput, not message units — it exists so the perf trajectory
// of the discrete-event core is tracked from PR to PR.
//
// Writes a small JSON report (BENCH_simcore.json by default, override with
// --out or the ELINK_BENCH_JSON cache variable at configure time):
//   events_per_sec           inline delivery flood on the synchronous
//                            network: refcounted payloads, each round's
//                            deliveries sharing one timestamp
//   async_events_per_sec     the same flood on the asynchronous network:
//                            U(0.5, 1.5) hop delays and ~2,400 deliveries
//                            in flight, nearly all at distinct times (the
//                            shape of explicit ELink)
//   callback_events_per_sec  closure flood (payload-carrying callbacks
//                            drained one event per RunAll(1)), kept for
//                            continuity with earlier baselines
//   sends_per_sec            Network broadcast storm on a 32x32 grid
//   peak_queue_size          high-water mark of the queue during the flood
//   peak_rss_kb              ru_maxrss after the floods (allocator footprint)
// plus the machine stamp (cpu_model, vcpus, simd, compiler, build_type).
//
// `--events N` / `--sends N` scale the workload; the ctest smoke run uses
// tiny counts so the harness is exercised on every test run.
//
// `--check-against <baseline.json>` compares this run against a committed
// report (the repo keeps one at the root as BENCH_simcore.json) and exits
// non-zero when events/sec or sends/sec regressed more than 10% — the PR
// perf gate.  async_events_per_sec is reported, not gated.
//
// The wire-format codec gets the same treatment: `--wire-frames N` scales an
// encode+decode throughput loop over a representative message mix, the
// numbers land in a second JSON report (BENCH_wire.json by default, override
// with --wire-out), and `--check-wire-against <baseline.json>` fails the run
// when either direction regressed more than 10%.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_util.h"
#include "common/rng.h"
#include "proto/wire.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/topology.h"

#ifndef ELINK_BENCH_JSON_DEFAULT
#define ELINK_BENCH_JSON_DEFAULT "BENCH_simcore.json"
#endif

using namespace elink;
using namespace elink::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct FloodOutcome {
  double events_per_sec = 0.0;
  size_t peak_queue_size = 0;
};

/// One refcounted in-flight payload, the shape of a Network pool slot.
struct FloodPayload {
  Message msg;
  uint32_t refs = 0;
};

/// Floods the queue with inline delivery events over one shared refcounted
/// payload — the shape of the Network's message path: POD enqueue, drain,
/// refcount release.  The handler re-schedules (one more reference +
/// enqueue) after the next of `delays`, cycled.  The synchronous flood's
/// one constant delay (Section 4: every hop takes one time unit) puts each
/// round's few hundred deliveries on one timestamp; the asynchronous
/// flood's U(0.5, 1.5) draws (Section 5) put nearly every delivery on a
/// timestamp of its own.
struct DeliveryFloodCtx {
  EventQueue* q = nullptr;
  FloodPayload* payload = nullptr;
  const std::vector<double>* delays = nullptr;
  uint64_t fired = 0;       // Dispatched deliveries.
  uint64_t remaining = 0;   // Re-schedules still allowed.
  uint64_t accum = 0;       // Defeats dead-code elimination.
};

void OnFloodDelivery(void* ctx, int from, int to, void* payload) {
  auto* c = static_cast<DeliveryFloodCtx*>(ctx);
  auto* p = static_cast<FloodPayload*>(payload);
  c->accum += p->msg.doubles.size() + static_cast<size_t>(from + to);
  ++c->fired;
  if (c->remaining > 0) {
    --c->remaining;
    ++c->payload->refs;
    const std::vector<double>& delays = *c->delays;
    c->q->ScheduleDeliveryAfter(delays[c->fired % delays.size()],
                                static_cast<int>(c->fired & 63),
                                static_cast<int>(c->fired & 7), c->payload);
  }
  --p->refs;
}

void OnFloodTimer(void*, int, int, uint64_t) {}

/// Runs `num_events` deliveries of `chains` concurrent chains.
FloodOutcome DeliveryFlood(uint64_t num_events, int chains,
                           const std::vector<double>& delays) {
  EventQueue q;
  FloodPayload payload;
  payload.msg.category = CategoryIdOf<"perf.flood">();
  payload.msg.doubles = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  payload.refs = 1;
  DeliveryFloodCtx ctx;
  ctx.q = &q;
  ctx.payload = &payload;
  ctx.delays = &delays;
  q.SetInlineHandlers(&OnFloodDelivery, &OnFloodTimer, &ctx);
  // Seed the chains across a few "rounds" so several times are live at
  // once.
  ctx.remaining = num_events > static_cast<uint64_t>(chains)
                      ? num_events - static_cast<uint64_t>(chains)
                      : 0;
  for (int i = 0; i < chains; ++i) {
    ++payload.refs;
    q.ScheduleDeliveryAfter(static_cast<double>(i & 7) * 0.125, i, i & 7,
                            ctx.payload);
  }
  const auto t0 = std::chrono::steady_clock::now();
  q.RunAll(num_events);
  const auto t1 = std::chrono::steady_clock::now();
  // Drain the tail beyond the cap so every scheduled reference is dropped.
  q.RunAll();
  ELINK_CHECK(payload.refs == 1);
  FloodOutcome out;
  out.events_per_sec = static_cast<double>(num_events) / Seconds(t0, t1);
  out.peak_queue_size = q.PeakSize();
  if (ctx.accum == UINT64_MAX) std::printf("impossible\n");
  return out;
}

FloodOutcome AsyncDeliveryFlood(uint64_t num_events) {
  // Pre-drawn, so the flood times the queue rather than the generator.
  Rng rng(42);
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.Uniform(0.5, 1.5);
  return DeliveryFlood(num_events, /*chains=*/2400, delays);
}

/// Closure flood: callbacks that carry a realistic payload (the Network's
/// delivery closures once captured a shared Message), re-scheduling after
/// each one-event RunAll(1) so the queue stays at a steady depth.
FloodOutcome EventFlood(uint64_t num_events) {
  EventQueue q;
  uint64_t fired = 0;
  size_t peak = 0;
  // The closure mirrors the Network's old delivery closures: a
  // this-pointer-sized reference, two node ids, and a shared payload handle
  // (~32 bytes of captures, so std::function keeps it on the heap).
  const auto payload = std::make_shared<const Message>([] {
    Message m;
    m.category = CategoryIdOf<"perf.flood">();
    m.doubles = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    return m;
  }());
  const auto delivery = [&fired, payload](int from, int to) {
    return [&fired, payload, from, to]() {
      fired += payload->doubles.size() + static_cast<size_t>(from + to);
    };
  };
  // Pre-fill a few hundred chains so pops interleave non-trivially.
  const int kChains = 256;
  for (int i = 0; i < kChains; ++i) {
    q.ScheduleAt(static_cast<double>(i % 7) * 0.125, delivery(i, i % 7));
  }
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t n = 0;
  while (n < num_events) {
    if (q.RunAll(1) == 0) break;
    ++n;
    q.ScheduleAfter(0.5 + (n % 16) * 0.03125,
                    delivery(static_cast<int>(n % 64), static_cast<int>(n % 7)));
    if (q.Size() > peak) peak = q.Size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  FloodOutcome out;
  out.events_per_sec = static_cast<double>(n) / Seconds(t0, t1);
  out.peak_queue_size = peak;
  return out;
}

/// Gossip node: re-broadcasts every received message while the shared send
/// budget lasts.  Exercises Send/Broadcast fan-out, fault gate, and stats.
class GossipNode : public Node {
 public:
  GossipNode(uint64_t* budget) : budget_(budget) {}
  void HandleMessage(int, const Message& msg) override {
    if (*budget_ == 0) return;
    const size_t fanout = network()->neighbors(id()).size();
    if (*budget_ < fanout) {
      *budget_ = 0;
      return;
    }
    *budget_ -= fanout;
    network()->Broadcast(id(), msg);
  }

 private:
  uint64_t* budget_;
};

double SendFlood(uint64_t num_sends) {
  Network::Config cfg;
  cfg.synchronous = true;
  cfg.seed = 42;
  Network net(MakeGridTopology(32, 32), cfg);
  uint64_t budget = num_sends;
  net.InstallNodes(
      [&budget](int) { return std::make_unique<GossipNode>(&budget); });
  Message seed_msg;
  seed_msg.category = CategoryIdOf<"perf.gossip">();
  seed_msg.doubles = {1.0, 2.0, 3.0, 4.0};
  seed_msg.ints = {1, 2};
  const auto t0 = std::chrono::steady_clock::now();
  net.Broadcast(0, seed_msg);
  net.Run();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(net.stats().total_sends()) / Seconds(t0, t1);
}

/// Wire-codec throughput over a representative message mix: a two-int
/// control frame, an enveloped mid-size reliable frame, and a feature push
/// — the three shapes that dominate protocol traffic.
struct WireOutcome {
  double encode_frames_per_sec = 0.0;
  double decode_frames_per_sec = 0.0;
  double encode_mb_per_sec = 0.0;
  double decode_mb_per_sec = 0.0;
};

std::vector<Message> WireMix() {
  std::vector<Message> mix;
  Message control;
  control.type = 3;
  control.ints = {1'000'000'007, 42};
  mix.push_back(control);
  Message reliable;
  reliable.type = 12;
  reliable.ints = {7, -19, 1 << 20};
  reliable.doubles = {3.25, -0.5, 1e300};
  reliable.rel_seq = 4711;
  reliable.rel_from = 17;
  reliable.rel_ack = true;
  mix.push_back(reliable);
  Message push;
  push.type = 21;
  push.ints = {260};
  push.doubles = {0.125, 2.5, -3.75, 8.0, 1.5, -0.25, 6.5, 0.875};
  mix.push_back(push);
  return mix;
}

WireOutcome WireBench(uint64_t num_frames) {
  const std::vector<Message> mix = WireMix();

  // Encode: append frames into a reusable buffer, flushed periodically so
  // the working set stays cache-resident like a real channel's send buffer.
  std::vector<uint8_t> buf;
  uint64_t encoded = 0, encoded_bytes = 0;
  const auto e0 = std::chrono::steady_clock::now();
  while (encoded < num_frames) {
    wire::EncodeFrame(mix[encoded % mix.size()], &buf);
    ++encoded;
    if (buf.size() > (1u << 16)) {
      encoded_bytes += buf.size();
      buf.clear();
    }
  }
  encoded_bytes += buf.size();
  const auto e1 = std::chrono::steady_clock::now();

  // Decode: stream-frame repeatedly over one pre-encoded buffer of the mix.
  std::vector<uint8_t> stream;
  for (int rep = 0; rep < 512; ++rep) {
    wire::EncodeFrame(mix[rep % mix.size()], &stream);
  }
  uint64_t decoded = 0, decoded_bytes = 0, accum = 0;
  const auto d0 = std::chrono::steady_clock::now();
  while (decoded < num_frames) {
    size_t at = 0;
    while (at < stream.size() && decoded < num_frames) {
      size_t consumed = 0;
      Result<Message> m = wire::DecodeFrame(stream.data() + at,
                                            stream.size() - at, &consumed);
      if (!m.ok()) {
        std::fprintf(stderr, "wire decode failed: %s\n",
                     m.status().ToString().c_str());
        std::abort();
      }
      accum += m.value().ints.size() + m.value().doubles.size();
      at += consumed;
      decoded_bytes += consumed;
      ++decoded;
    }
  }
  const auto d1 = std::chrono::steady_clock::now();
  if (accum == UINT64_MAX) std::printf("impossible\n");

  WireOutcome out;
  out.encode_frames_per_sec = static_cast<double>(encoded) / Seconds(e0, e1);
  out.decode_frames_per_sec = static_cast<double>(decoded) / Seconds(d0, d1);
  out.encode_mb_per_sec =
      static_cast<double>(encoded_bytes) / (1e6 * Seconds(e0, e1));
  out.decode_mb_per_sec =
      static_cast<double>(decoded_bytes) / (1e6 * Seconds(d0, d1));
  return out;
}

std::string OutPath(int argc, char** argv) {
  const std::string out = StringFlag(argc, argv, "--out");
  return out.empty() ? ELINK_BENCH_JSON_DEFAULT : out;
}

/// Peak resident set size in KiB (0 where getrusage is unavailable).
size_t PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<size_t>(ru.ru_maxrss) / 1024;  // Bytes on macOS.
#else
    return static_cast<size_t>(ru.ru_maxrss);  // KiB on Linux.
#endif
  }
#endif
  return 0;
}

/// Compares this run against a committed baseline report; returns false
/// (check failed) when events/sec or sends/sec regressed more than 10%.
bool CheckAgainst(const std::string& baseline_path, const FloodOutcome& flood,
                  double sends_per_sec) {
  const std::optional<std::string> json = ReadWholeFile(baseline_path);
  if (!json) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return false;
  }
  const double base_events = JsonNumber(*json, "events_per_sec");
  const double base_sends = JsonNumber(*json, "sends_per_sec");
  if (base_events <= 0.0) {
    std::fprintf(stderr, "baseline %s has no events_per_sec\n",
                 baseline_path.c_str());
    return false;
  }
  const double events_ratio = flood.events_per_sec / base_events;
  std::printf("check: events/sec %.0f vs baseline %.0f (%.1f%%)\n",
              flood.events_per_sec, base_events, 100.0 * events_ratio);
  bool ok = true;
  if (events_ratio < 0.9) {
    std::fprintf(stderr,
                 "FAIL: events/sec dropped more than 10%% against %s\n",
                 baseline_path.c_str());
    ok = false;
  }
  if (base_sends > 0.0) {
    const double sends_ratio = sends_per_sec / base_sends;
    std::printf("check: sends/sec  %.0f vs baseline %.0f (%.1f%%)\n",
                sends_per_sec, base_sends, 100.0 * sends_ratio);
    if (sends_ratio < 0.9) {
      std::fprintf(stderr,
                   "FAIL: sends/sec dropped more than 10%% against %s\n",
                   baseline_path.c_str());
      ok = false;
    }
  }
  if (ok) std::printf("check: OK (within 10%% of baseline)\n");
  return ok;
}

/// Wire-codec gate: fails when encode or decode frames/sec regressed more
/// than 10% against the committed baseline report.
bool CheckWireAgainst(const std::string& baseline_path,
                      const WireOutcome& wire) {
  const std::string json = ReadWholeFile(baseline_path).value_or("");
  if (json.empty()) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return false;
  }
  bool ok = true;
  const struct {
    const char* key;
    double measured;
  } gates[] = {
      {"encode_frames_per_sec", wire.encode_frames_per_sec},
      {"decode_frames_per_sec", wire.decode_frames_per_sec},
  };
  for (const auto& gate : gates) {
    const double base = JsonNumber(json, gate.key);
    if (base <= 0.0) {
      std::fprintf(stderr, "baseline %s has no %s\n", baseline_path.c_str(),
                   gate.key);
      return false;
    }
    const double ratio = gate.measured / base;
    std::printf("check: %s %.0f vs baseline %.0f (%.1f%%)\n", gate.key,
                gate.measured, base, 100.0 * ratio);
    if (ratio < 0.9) {
      std::fprintf(stderr, "FAIL: %s dropped more than 10%% against %s\n",
                   gate.key, baseline_path.c_str());
      ok = false;
    }
  }
  if (ok) std::printf("check: wire OK (within 10%% of baseline)\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t num_events = FlagValue(argc, argv, "--events", 2'000'000);
  const uint64_t num_sends = FlagValue(argc, argv, "--sends", 500'000);
  const uint64_t num_frames = FlagValue(argc, argv, "--wire-frames",
                                        2'000'000);
  const std::string out_path = OutPath(argc, argv);

  const FloodOutcome flood = DeliveryFlood(num_events, /*chains=*/256, {0.5});
  const FloodOutcome async_flood = AsyncDeliveryFlood(num_events);
  const FloodOutcome legacy = EventFlood(num_events);
  const double sends_per_sec = SendFlood(num_sends);
  const WireOutcome wire = WireBench(num_frames);
  const size_t peak_rss_kb = PeakRssKb();

  std::printf("events/sec          %12.0f\n", flood.events_per_sec);
  std::printf("async events/sec    %12.0f\n", async_flood.events_per_sec);
  std::printf("callback events/sec %12.0f\n", legacy.events_per_sec);
  std::printf("sends/sec           %12.0f\n", sends_per_sec);
  std::printf("encode frames/sec   %12.0f (%.0f MB/s)\n",
              wire.encode_frames_per_sec, wire.encode_mb_per_sec);
  std::printf("decode frames/sec   %12.0f (%.0f MB/s)\n",
              wire.decode_frames_per_sec, wire.decode_mb_per_sec);
  std::printf("peak queue size     %12zu\n", flood.peak_queue_size);
  std::printf("peak rss kb         %12zu\n", peak_rss_kb);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string machine = CurrentMachine().JsonMembers("  ");
  std::fprintf(f,
               "{\n"
               "%s"
               "  \"events\": %llu,\n"
               "  \"sends\": %llu,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"async_events_per_sec\": %.0f,\n"
               "  \"callback_events_per_sec\": %.0f,\n"
               "  \"sends_per_sec\": %.0f,\n"
               "  \"peak_queue_size\": %zu,\n"
               "  \"peak_rss_kb\": %zu\n"
               "}\n",
               machine.c_str(), static_cast<unsigned long long>(num_events),
               static_cast<unsigned long long>(num_sends),
               flood.events_per_sec, async_flood.events_per_sec,
               legacy.events_per_sec, sends_per_sec,
               flood.peak_queue_size, peak_rss_kb);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  const std::string wire_out = StringFlag(argc, argv, "--wire-out");
  const std::string wire_path = wire_out.empty() ? "BENCH_wire.json"
                                                 : wire_out;
  FILE* wf = std::fopen(wire_path.c_str(), "w");
  if (wf == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", wire_path.c_str());
    return 1;
  }
  std::fprintf(wf,
               "{\n"
               "  \"wire_frames\": %llu,\n"
               "  \"encode_frames_per_sec\": %.0f,\n"
               "  \"decode_frames_per_sec\": %.0f,\n"
               "  \"encode_mb_per_sec\": %.1f,\n"
               "  \"decode_mb_per_sec\": %.1f\n"
               "}\n",
               static_cast<unsigned long long>(num_frames),
               wire.encode_frames_per_sec, wire.decode_frames_per_sec,
               wire.encode_mb_per_sec, wire.decode_mb_per_sec);
  std::fclose(wf);
  std::printf("wrote %s\n", wire_path.c_str());

  bool ok = true;
  const std::string baseline = StringFlag(argc, argv, "--check-against");
  if (!baseline.empty() && !CheckAgainst(baseline, flood, sends_per_sec)) {
    ok = false;
  }
  const std::string wire_baseline =
      StringFlag(argc, argv, "--check-wire-against");
  if (!wire_baseline.empty() && !CheckWireAgainst(wire_baseline, wire)) {
    ok = false;
  }
  return ok ? 0 : 1;
}
