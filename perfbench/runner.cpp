// One pass of one benchmark workload, driven through the program's public
// API only. The pass builds its fleet(s), runs every strategy loop one
// round at a time (timing each `run_range(fleet, result, c, c + 1)` call
// from outside), and writes everything measured to a JSON record that
// run.py turns into metrics and checks.
//
//   perfbench_runner --workload <name> --seed <n> --target <accuracy>
//                    --out <file> --scratch <dir> [--traced] [--calibrate]
//
// With --traced the telemetry sink keeps a Chrome trace in memory, which is
// written next to the record as <file>.trace.json; without it the sink runs
// with tracing off, so counters still work but no span is recorded.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agg/topology.h"
#include "agg/tree.h"
#include "bench_common.h"
#include "codec/codec.h"
#include "core/helios_strategy.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/hierarchy.h"
#include "fl/transport.h"
#include "net/wire.h"
#include "obs/procstat.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "util/thread_pool.h"

namespace {

using namespace helios;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent sub-seeds derived from the one --seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the bytes of the global parameters and buffers.
std::string model_digest(fl::Server& server) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const std::vector<float>& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
      h = (h ^ p[i]) * 0x100000001B3ULL;
    }
  };
  mix(server.global());
  mix(server.global_buffers());
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

// ---- Minimal JSON writer ----------------------------------------------------

class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {
    os_ << std::setprecision(17);
  }
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    os_ << '"' << v << '"';
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& raw(const std::string& v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostream& os_;
  bool fresh_ = true;
};

// ---- Measurements ----------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double build_fleet_s = 0.0;   // data / population synthesis + fleet build
  double identify_s = 0.0;      // StragglerIdentifier::* + apply
  double assign_target_s = 0.0; // TargetDeterminer::assign_profiled
  double sessions_s = 0.0;      // sampler, network and tree sessions
};

struct TierRound {
  double edge_fold_s = 0.0;
  double regional_fold_s = 0.0;
  double root_fold_s = 0.0;
  double frames_folded = 0.0;
};

struct Loop {
  std::string method;
  fl::RunResult result;
  std::vector<double> round_wall_s;
  std::vector<double> checkpoint_save_s;
  std::vector<double> replica_mb;
  std::vector<TierRound> tiers;
  double loop_s = 0.0;
  /// Trace-clock [begin, end] of every round, flattened (traced pass only).
  std::vector<double> trace_windows_us;
  std::string digest;
};

struct Micro {
  double frame_encode_us = 0.0;
  double frame_decode_us = 0.0;
  double codec_encode_us = 0.0;
  double codec_decode_us = 0.0;
};

struct Pass {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  int threads = 1;
  SetupTimes setup;  // workload start to the first round
  std::vector<Loop> loops;
  double checkpoint_load_s = 0.0;
  double checkpoint_mb = 0.0;
  std::string resume_digest;
  double merge_frame_mb = 0.0;
  Micro micro;
  /// One sink for the whole pass, so counters sum over every loop. Tracing
  /// is on only in the traced pass, and the trace stays in memory.
  std::unique_ptr<obs::TelemetrySink> sink;
};

std::unique_ptr<obs::TelemetrySink> make_sink(bool traced) {
  obs::TelemetryConfig cfg;
  cfg.tracing = traced;
  return std::make_unique<obs::TelemetrySink>(cfg);
}

double trace_now(obs::TelemetrySink& sink) {
  return sink.tracer() ? sink.tracer()->now_us() : 0.0;
}

/// Runs round `c` of `strategy` on `fleet`, timed from outside.
/// `after_round` runs inside the timed window (checkpoint saves).
void run_round(fl::Fleet& fleet, fl::Strategy& strategy, int c,
               obs::TelemetrySink& sink, Loop& loop,
               const std::function<void()>& after_round = nullptr) {
  loop.result.method = strategy.name();
  const double begin_us = trace_now(sink);
  const auto t0 = Clock::now();
  strategy.run_range(fleet, loop.result, c, c + 1);
  if (after_round) after_round();
  const double wall = seconds_since(t0);
  loop.round_wall_s.push_back(wall);
  loop.loop_s += wall;
  if (sink.tracer()) {
    loop.trace_windows_us.push_back(begin_us);
    loop.trace_windows_us.push_back(trace_now(sink));
  }
}

/// Collects the aggregator tree's per-tier rollup of the round just run.
TierRound harvest_tiers(fl::HierarchySession& hier) {
  TierRound r;
  for (const agg::TierStats& t : hier.tree().tier_stats()) {
    const std::string_view tier = t.tier;
    if (tier == "edge") {
      r.edge_fold_s += t.fold_seconds;
      r.frames_folded += static_cast<double>(t.frames_folded);
    } else if (tier == "regional") {
      r.regional_fold_s += t.fold_seconds;
    } else {
      r.root_fold_s += t.fold_seconds;
    }
  }
  return r;
}

/// Median of `reps` timings of `fn`, in microseconds.
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e6);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Times the wire encode/decode and the codec quantize/dequantize of one
/// update shaped like the workload's model: the global parameters with a
/// deterministic perturbation as the trained update, the global itself as
/// the delta base.
Micro time_wire_and_codec(fl::Fleet& fleet, codec::CodecId id,
                          std::uint64_t seed) {
  nn::Model& model = fleet.server().reference_model();
  const net::WireLayout layout = net::make_wire_layout(model);
  const std::vector<float>& base = fleet.server().global();
  std::vector<float> params = base;
  std::uint64_t state = derive_seed(seed, 99);
  for (float& v : params) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v += static_cast<float>(static_cast<std::int64_t>(state >> 40) % 2001 -
                            1000) *
         1e-5F;
  }
  net::WireMessage msg;
  msg.client_id = 0;
  msg.sample_count = 64;
  msg.params = params;
  msg.buffers = fleet.server().global_buffers();

  const int reps = 31;
  Micro m;
  std::vector<std::uint8_t> frame;
  m.frame_encode_us = median_us(reps, [&] {
    frame = net::encode_frame_auto(msg, base, layout, id, nullptr);
  });
  m.frame_decode_us = median_us(reps, [&] {
    const net::DecodedMessage d = net::decode_frame(frame, layout, base);
    if (d.params.size() != params.size()) {
      throw std::runtime_error("wire round trip lost parameters");
    }
  });

  const std::uint32_t common = static_cast<std::uint32_t>(layout.neuron_total);
  std::vector<std::uint32_t> groups(layout.neuron_of.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i] = layout.neuron_of[i] == net::WireLayout::kCommonParam
                    ? common
                    : layout.neuron_of[i];
  }
  const std::size_t group_count = static_cast<std::size_t>(common) + 1;
  codec::QuantPlan plan;
  std::vector<std::uint8_t> payload;
  m.codec_encode_us = median_us(reps, [&] {
    payload.clear();
    plan = codec::plan_quantization(id, params, groups, group_count);
    codec::encode_values(plan, params, groups, payload);
  });
  m.codec_decode_us = median_us(reps, [&] {
    const std::vector<float> v =
        codec::decode_values(plan, payload, groups, params.size());
    if (v.size() != params.size()) {
      throw std::runtime_error("codec round trip lost values");
    }
  });
  return m;
}

/// Per-layer timings of the traced pass that the round loop itself does not
/// produce: wire and codec encode/decode on the workload's model geometry
/// and codec, and (where rounds save none) one checkpoint save plus a
/// resume of it into the same fleet, as bench_scale times them.
void time_layers_after_loop(Pass& pass, fl::Fleet& fleet,
                            fl::Strategy& strategy, Loop& loop,
                            codec::CodecId id, const std::string& scratch) {
  pass.micro = time_wire_and_codec(fleet, id, pass.seed);
  if (!loop.checkpoint_save_s.empty()) return;
  const std::string ckpt = scratch + "/" + pass.workload + ".ckpt";
  auto t0 = Clock::now();
  fleet.save_checkpoint(ckpt, &strategy, loop.result);
  loop.checkpoint_save_s.push_back(seconds_since(t0));
  pass.checkpoint_mb =
      static_cast<double>(std::filesystem::file_size(ckpt)) / 1e6;
  t0 = Clock::now();
  fleet.resume(ckpt, &strategy);
  pass.checkpoint_load_s = seconds_since(t0);
  std::filesystem::remove(ckpt);
}

// ---- paper_testbed ----------------------------------------------------------
//
// The paper's Table I testbed: 6 devices, 3 stragglers, AlexNet-lite on an
// IID split, ideal network, flat aggregation, fp32, one thread. Syn. FL, AFO
// and Helios each run a fixed number of cycles on their own fleet. Their
// rounds are interleaved, so a slow spell of the machine lands on all three
// strategies alike instead of on whichever ran during it.

constexpr int kPaperCycles = 15;

void run_paper_testbed(Pass& pass, const std::string& scratch) {
  util::set_global_threads(1);
  pass.threads = 1;
  // The seed draws the samples, the split, the client streams and the
  // initial model; the class prototypes (the task identity) stay fixed, as
  // they do in sim::mobile_longtail.
  const bench::TaskSpec task = bench::alexnet_task(bench::Scale{});
  bench::FleetSetup setup;
  setup.devices = 6;
  setup.stragglers = 3;
  setup.non_iid = false;
  setup.seed = derive_seed(pass.seed, 2);

  struct Arm {
    fl::Fleet fleet;
    std::unique_ptr<fl::Strategy> strategy;
    Loop loop;
  };
  std::vector<std::unique_ptr<Arm>> arms;
  const auto t0 = Clock::now();
  for (const char* method : {"Syn. FL", "AFO", "Helios"}) {
    // bench::build_fleet runs identification and target determination
    // inside, so they count in build_fleet_s here.
    arms.push_back(std::make_unique<Arm>(
        Arm{bench::build_fleet(task, setup), bench::make_strategy(method), {}}));
    arms.back()->fleet.set_telemetry(pass.sink.get());
    arms.back()->loop.method = method;
  }
  pass.setup.build_fleet_s = seconds_since(t0);
  pass.setup.total_s = pass.setup.build_fleet_s;

  for (int c = 0; c < kPaperCycles; ++c) {
    for (auto& arm : arms) {
      run_round(arm->fleet, *arm->strategy, c, *pass.sink, arm->loop);
      arm->loop.replica_mb.push_back(
          static_cast<double>(arm->fleet.live_replica_bytes()) / 1e6);
    }
  }
  for (auto& arm : arms) {
    arm->loop.digest = model_digest(arm->fleet.server());
    if (pass.traced && arm->loop.method == "Helios") {
      // bench::build_fleet identified the stragglers and set the targets
      // inside set-up; time the same calls again on the finished fleet.
      auto t1 = Clock::now();
      const core::StragglerReport report =
          core::StragglerIdentifier::resource_based(arm->fleet, 2.0);
      core::StragglerIdentifier::apply(arm->fleet, report);
      pass.setup.identify_s = seconds_since(t1);
      t1 = Clock::now();
      core::TargetDeterminer::assign_profiled(arm->fleet, report, 0.05);
      pass.setup.assign_target_s = seconds_since(t1);
      time_layers_after_loop(pass, arm->fleet, *arm->strategy, arm->loop,
                             codec::CodecId::kFp32, scratch);
    }
    arm->fleet.set_telemetry(nullptr);
    pass.loops.push_back(std::move(arm->loop));
  }
}

// ---- Population workloads ---------------------------------------------------

/// A sampled mobile-longtail fleet with its sessions. The fleet lives on the
/// heap so the sessions' references to it stay valid.
struct World {
  std::unique_ptr<fl::Fleet> fleet;
  std::unique_ptr<sim::CohortSampler> sampler;
  std::unique_ptr<fl::NetworkSession> network;
  std::unique_ptr<fl::HierarchySession> tree;
};

struct PopulationSpec {
  int devices = 0;
  bool lazy_data = false;
  double fraction = 0.1;
  bool lossy_network = false;
  int edge_nodes = 0;  // 0 = flat aggregation
  int fanout = 0;
};

World build_world(const PopulationSpec& spec, Pass& pass, SetupTimes& t) {
  World w;
  const auto t0 = Clock::now();
  sim::PopulationConfig cfg =
      sim::mobile_longtail(spec.devices, derive_seed(pass.seed, 3));
  cfg.lazy_data = spec.lazy_data;
  const sim::PopulationGenerator pop(cfg);
  w.fleet = std::make_unique<fl::Fleet>(sim::build_fleet(pop));
  t.build_fleet_s = seconds_since(t0);

  auto t1 = Clock::now();
  // Rank-based identification suits a long tail: the slowest quarter.
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      *w.fleet, std::max(1, spec.devices / 4));
  core::StragglerIdentifier::apply(*w.fleet, report);
  t.identify_s = seconds_since(t1);
  t1 = Clock::now();
  core::TargetDeterminer::assign_profiled(*w.fleet, report);
  t.assign_target_s = seconds_since(t1);

  t1 = Clock::now();
  sim::CohortSampler::Options sopts;
  sopts.fraction = spec.fraction;
  sopts.seed = derive_seed(pass.seed, 4);
  w.sampler = std::make_unique<sim::CohortSampler>(sopts);
  w.sampler->attach(w.fleet.get());
  w.fleet->set_sampler(w.sampler.get());
  w.fleet->set_telemetry(pass.sink.get());
  if (spec.lossy_network) {
    net::NetworkOptions opts;
    opts.mode = net::NetMode::kSimulated;
    opts.channel.loss_prob = 0.05;
    opts.channel.latency_s = 0.005;
    opts.channel.jitter_s = 0.002;
    opts.deadline_factor = 2.0;
    opts.seed = derive_seed(pass.seed, 5);
    opts.payload_codec = codec::CodecId::kInt8PerNeuron;
    opts.error_feedback = true;
    w.network = std::make_unique<fl::NetworkSession>(*w.fleet, opts);
  }
  if (spec.edge_nodes > 0) {
    agg::TreeTopology topo;
    topo.edge_nodes = spec.edge_nodes;
    topo.fanout = spec.fanout;
    w.tree = std::make_unique<fl::HierarchySession>(*w.fleet, topo);
  }
  t.sessions_s = seconds_since(t1);
  t.total_s = seconds_since(t0);
  return w;
}

void detach(World& w) {
  w.fleet->set_telemetry(nullptr);
  w.fleet->set_sampler(nullptr);
}

// lossy_longtail: 400 mobile devices, C = 0.1, a lossy simulated channel
// with an int8 per-neuron codec and error feedback, flat aggregation, all
// cores. Every round ends with a checkpoint save; the pass ends with one
// resume into a rebuilt fleet.

constexpr int kLossyDevices = 400;
constexpr int kLossyCycles = 30;

void run_lossy_longtail(Pass& pass, const std::string& scratch) {
  pass.threads = static_cast<int>(std::thread::hardware_concurrency());
  util::set_global_threads(pass.threads);
  PopulationSpec spec;
  spec.devices = kLossyDevices;
  spec.fraction = 0.1;
  spec.lossy_network = true;

  const std::string ckpt = scratch + "/lossy_longtail.ckpt";
  Loop loop;
  loop.method = "Helios";
  World w = build_world(spec, pass, pass.setup);
  auto strategy = bench::make_strategy("Helios");
  for (int c = 0; c < kLossyCycles; ++c) {
    run_round(*w.fleet, *strategy, c, *pass.sink, loop, [&] {
      const auto t0 = Clock::now();
      w.fleet->save_checkpoint(ckpt, strategy.get(), loop.result);
      loop.checkpoint_save_s.push_back(seconds_since(t0));
    });
    loop.replica_mb.push_back(
        static_cast<double>(w.fleet->live_replica_bytes()) / 1e6);
  }
  loop.digest = model_digest(w.fleet->server());
  pass.checkpoint_mb =
      static_cast<double>(std::filesystem::file_size(ckpt)) / 1e6;
  if (pass.traced) {
    time_layers_after_loop(pass, *w.fleet, *strategy, loop,
                           codec::CodecId::kInt8PerNeuron, scratch);
  }
  detach(w);
  pass.loops.push_back(std::move(loop));

  // Resume into an identically rebuilt fleet: the restored global model
  // must match the one the loop finished with.
  SetupTimes unused;
  World again = build_world(spec, pass, unused);
  auto fresh = bench::make_strategy("Helios");
  const auto t0 = Clock::now();
  const fl::RunResult restored = again.fleet->resume(ckpt, fresh.get());
  pass.checkpoint_load_s = seconds_since(t0);
  if (restored.rounds.size() != static_cast<std::size_t>(kLossyCycles)) {
    throw std::runtime_error("resume restored the wrong number of rounds");
  }
  pass.resume_digest = model_digest(again.fleet->server());
  detach(again);
  std::filesystem::remove(ckpt);
}

// population_tree: lazy-data mobile-longtail population with
// C = max(0.01, 8 / N), updates folded through a depth-3 tree of 64 edges
// with fanout 8, ideal network, fp32, all cores.

constexpr int kTreeDevices = 32768;
constexpr int kTreeCycles = 10;

void run_population_tree(Pass& pass, const std::string& scratch) {
  pass.threads = static_cast<int>(std::thread::hardware_concurrency());
  util::set_global_threads(pass.threads);
  PopulationSpec spec;
  spec.devices = kTreeDevices;
  spec.lazy_data = true;
  spec.fraction = std::max(0.01, 8.0 / kTreeDevices);
  spec.edge_nodes = 64;
  spec.fanout = 8;

  Loop loop;
  loop.method = "Helios";
  World w = build_world(spec, pass, pass.setup);
  pass.merge_frame_mb =
      static_cast<double>(w.tree->tree().merge_frame_bytes()) / 1e6;
  auto strategy = bench::make_strategy("Helios");
  for (int c = 0; c < kTreeCycles; ++c) {
    run_round(*w.fleet, *strategy, c, *pass.sink, loop);
    loop.replica_mb.push_back(
        static_cast<double>(w.fleet->live_replica_bytes()) / 1e6);
    loop.tiers.push_back(harvest_tiers(*w.tree));
  }
  loop.digest = model_digest(w.fleet->server());
  if (pass.traced) {
    time_layers_after_loop(pass, *w.fleet, *strategy, loop,
                           codec::CodecId::kFp32, scratch);
  }
  detach(w);
  pass.loops.push_back(std::move(loop));
}

// ---- Calibration probe ------------------------------------------------------

/// Wall time of `threads` threads each spinning the same fixed integer work.
double spin_seconds(int threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t);
      for (int i = 0; i < 40'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  return seconds_since(t0);
}

// ---- Output -----------------------------------------------------------------

void write_setup(Json& j, const SetupTimes& t) {
  j.open('{');
  j.key("total_s").num(t.total_s);
  j.key("build_fleet_s").num(t.build_fleet_s);
  j.key("identify_s").num(t.identify_s);
  j.key("assign_target_s").num(t.assign_target_s);
  j.key("sessions_s").num(t.sessions_s);
  j.close('}');
}

void write_loop(Json& j, const Loop& l, double target) {
  j.open('{');
  j.key("method").str(l.method);
  j.key("loop_s").num(l.loop_s);
  j.key("trace_windows_us").nums(l.trace_windows_us);
  j.key("digest").str(l.digest);
  j.key("round_wall_s").nums(l.round_wall_s);
  j.key("checkpoint_save_s").nums(l.checkpoint_save_s);
  j.key("replica_mb").nums(l.replica_mb);
  j.key("rounds").open('[');
  for (const fl::RoundRecord& r : l.result.rounds) {
    j.open('{');
    j.key("cycle").num(r.cycle);
    j.key("virtual_time").num(r.virtual_time);
    j.key("accuracy").num(r.test_accuracy);
    j.key("loss").num(r.mean_train_loss);
    j.key("upload_mb").num(r.upload_mb);
    j.close('}');
  }
  j.close(']');
  j.key("final_accuracy").num(l.result.final_accuracy());
  // Cycles run until the target was met (cycles_to_accuracy is the index of
  // that cycle); 0 when it never was.
  const std::size_t hit = l.result.cycles_to_accuracy(target);
  j.key("cycles_to_target").num(hit == fl::RunResult::npos
                                    ? 0.0
                                    : static_cast<double>(hit + 1));
  j.key("vtime_to_target").num(l.result.time_to_accuracy(target));
  j.key("tiers").open('[');
  for (const TierRound& t : l.tiers) {
    j.open('{');
    j.key("edge_fold_s").num(t.edge_fold_s);
    j.key("regional_fold_s").num(t.regional_fold_s);
    j.key("root_fold_s").num(t.root_fold_s);
    j.key("frames_folded").num(t.frames_folded);
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

int usage() {
  std::cerr << "usage: perfbench_runner --workload <paper_testbed|"
               "lossy_longtail|population_tree> --seed <n> --out <file> "
               "--scratch <dir> [--traced] [--calibrate]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Pass pass;
  std::string out;
  std::string scratch = ".";
  double target = 1.0;
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      pass.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      pass.seed = std::stoull(argv[++i]);
    } else if (a == "--target" && has_value) {
      target = std::stod(argv[++i]);
    } else if (a == "--out" && has_value) {
      out = argv[++i];
    } else if (a == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (a == "--traced") {
      pass.traced = true;
    } else if (a == "--calibrate") {
      calibrate = true;
    } else {
      return usage();
    }
  }
  if (out.empty()) return usage();

  // Calibration probe: N busy threads against 1, alternated three times
  // and reduced by median so one preempted sample does not decide it.
  double spin_1 = 0.0;
  double spin_n = 0.0;
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (calibrate) {
    std::vector<double> one;
    std::vector<double> many;
    for (int r = 0; r < 3; ++r) {
      one.push_back(spin_seconds(1));
      many.push_back(spin_seconds(cores));
    }
    std::sort(one.begin(), one.end());
    std::sort(many.begin(), many.end());
    spin_1 = one[1];
    spin_n = many[1];
  }

  pass.sink = make_sink(pass.traced);
  try {
    if (pass.workload == "paper_testbed") {
      run_paper_testbed(pass, scratch);
    } else if (pass.workload == "lossy_longtail") {
      run_lossy_longtail(pass, scratch);
    } else if (pass.workload == "population_tree") {
      run_population_tree(pass, scratch);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << pass.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  const double peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  pass.sink->flush();

  std::ostringstream body;
  Json j(body);
  j.open('{');
  j.key("workload").str(pass.workload);
  j.key("seed").num(static_cast<double>(pass.seed));
  j.key("traced").boolean(pass.traced);
  j.key("threads").num(pass.threads);
  j.key("nproc").num(cores);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("peak_rss_mb").num(peak_rss_mb);
  j.key("setup");
  write_setup(j, pass.setup);
  j.key("calibration").open('{');
  j.key("threads").num(calibrate ? cores : 0);
  j.key("spin_1_s").num(spin_1);
  j.key("spin_n_s").num(spin_n);
  j.close('}');
  j.key("checkpoint_load_s").num(pass.checkpoint_load_s);
  j.key("checkpoint_mb").num(pass.checkpoint_mb);
  j.key("resume_digest").str(pass.resume_digest);
  j.key("merge_frame_mb").num(pass.merge_frame_mb);
  j.key("micro").open('{');
  j.key("frame_encode_us").num(pass.micro.frame_encode_us);
  j.key("frame_decode_us").num(pass.micro.frame_decode_us);
  j.key("codec_encode_us").num(pass.micro.codec_encode_us);
  j.key("codec_decode_us").num(pass.micro.codec_decode_us);
  j.close('}');
  j.key("loops").open('[');
  for (const Loop& l : pass.loops) write_loop(j, l, target);
  j.close(']');
  std::ostringstream metrics;
  pass.sink->write_metrics_json(metrics);
  j.key("metrics").raw(metrics.str());
  j.close('}');

  std::ofstream(out) << body.str() << "\n";
  if (pass.traced) std::ofstream(out + ".trace.json") << pass.sink->trace_text();
  return 0;
}
