// The merged streaming timeline of run_online pinned bit for bit: two
// streams — recurring scenes served from the plan cache with warm start,
// and a weathered stream with a permanent NPU drop-out, the closed thermal
// loop and deadline deferral — are hashed into one digest over every task
// record, every request's completion, the deadline misses and the drift
// records' predicted and executed times.  Any change to how a window's
// plan is lowered into the whole-stream DES (slot and dep offsets, the
// processor remap, root arrivals, the fallback spread) that moves a single
// bit of any of them changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "models/model_zoo.h"
#include "sim/fault_injector.h"
#include "sim/online.h"
#include "util/rng.h"

namespace h2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void add_result(Fnv1a& fnv, const OnlineResult& r) {
  fnv.add(static_cast<std::uint64_t>(r.timeline.tasks.size()));
  for (const TaskRecord& t : r.timeline.tasks) {
    fnv.add(static_cast<std::uint64_t>(t.model_idx));
    fnv.add(static_cast<std::uint64_t>(t.seq_in_model));
    fnv.add(static_cast<std::uint64_t>(t.proc_idx));
    fnv.add(t.start_ms);
    fnv.add(t.end_ms);
    fnv.add(t.solo_ms);
  }
  for (const double c : r.completion_ms) fnv.add(c);
  fnv.add(static_cast<std::uint64_t>(r.deadline_misses));
  fnv.add(static_cast<std::uint64_t>(r.slice_records.size()));
  for (const obs::SliceRecord& s : r.slice_records) {
    fnv.add(s.predicted_start_ms);
    fnv.add(s.predicted_finish_ms);
    fnv.add(s.executed_start_ms);
    fnv.add(s.executed_finish_ms);
  }
}

/// Four-model scenes drawn from three recurring multisets, shuffled, with
/// one model substituted in about a fifth of them (the near misses warm
/// start seeds from), arriving as a Poisson stream.
std::vector<OnlineRequest> scene_stream(std::size_t scenes, double mean_gap_ms,
                                        std::uint64_t seed) {
  const std::vector<std::vector<ModelId>> bases = {
      {ModelId::kResNet50, ModelId::kBERT, ModelId::kSqueezeNet,
       ModelId::kMobileNetV2},
      {ModelId::kYOLOv4, ModelId::kGoogLeNet, ModelId::kAlexNet,
       ModelId::kSqueezeNet},
      {ModelId::kViT, ModelId::kResNet50, ModelId::kMobileNetV2,
       ModelId::kGoogLeNet}};
  Rng rng(seed);
  std::vector<OnlineRequest> stream;
  double t = 0.0;
  for (std::size_t s = 0; s < scenes; ++s) {
    std::vector<ModelId> scene = bases[rng.index(bases.size())];
    if (rng.chance(0.2)) {
      scene[rng.index(scene.size())] =
          all_model_ids()[rng.index(all_model_ids().size())];
    }
    rng.shuffle(scene);
    for (const ModelId id : scene) {
      t -= mean_gap_ms * std::log(1.0 - rng.uniform());
      OnlineRequest req;
      req.model = &zoo_model(id);
      req.arrival_ms = t;
      stream.push_back(req);
    }
  }
  return stream;
}

TEST(OnlineTimeline, MatchesPinnedDigest) {
  const Soc soc = Soc::kirin990();
  Fnv1a fnv;

  // Recurring scenes: plan cache and warm start, no faults.
  {
    OnlineOptions opts;
    opts.replan_window = 4;
    opts.warm_start = true;
    opts.drift_tracking = true;
    const OnlineResult r = run_online(soc, scene_stream(24, 3.0, 36), opts);
    EXPECT_GT(r.cache_hits, 0);
    EXPECT_GT(r.warm_hits, 0);
    add_result(fnv, r);
  }

  // Weather: a driver cascade and a background burst from the start, a
  // permanent NPU drop-out mid-stream (work planned onto it migrates
  // through the fallback table), the closed thermal loop, and deadlines
  // that the degraded SoC cannot keep but the healthy one could (deferred,
  // then shed).  Every window under a fault script carries a fallback
  // table.
  {
    WeatherEvent cascade;
    cascade.kind = WeatherKind::kDriverCascade;
    cascade.begin_ms = 10.0;
    cascade.duration_ms = 30.0;
    cascade.severity = 0.8;
    WeatherEvent burst;
    burst.kind = WeatherKind::kBackgroundBurst;
    burst.begin_ms = 0.0;
    burst.duration_ms = 120.0;
    burst.severity = 0.7;
    const FaultScript faults = FaultScript::with_weather(
        soc, {cascade, burst},
        {FaultEvent{FaultKind::kDropout, 0, 60.0, kInf, 1.0}});
    std::vector<OnlineRequest> stream = scene_stream(16, 2.5, 37);
    for (std::size_t i = 0; i < stream.size(); i += 3) {
      stream[i].deadline_ms = stream[i].arrival_ms + 25.0;
    }
    OnlineOptions opts;
    opts.replan_window = 4;
    opts.faults = &faults;
    opts.deadline_policy = DeadlinePolicy::kDefer;
    opts.thermal_loop = true;
    opts.thermal.ambient_c = 45.0;
    opts.thermal.time_scale = 50000.0;
    opts.drift_tracking = true;
    const OnlineResult r = run_online(soc, stream, opts);
    EXPECT_GT(r.deferred_requests, 0u);
    bool degraded = false;
    for (const WindowStats& w : r.windows) degraded |= w.avail_mask != 0xfu;
    EXPECT_TRUE(degraded);
    EXPECT_GT(r.bucket_transitions, 0u);
    bool migrated = false;
    for (const obs::SliceRecord& s : r.slice_records) migrated |= s.migrated;
    EXPECT_TRUE(migrated);
    add_result(fnv, r);
  }

  EXPECT_EQ(fnv.h, 0x708e7f3291c2e6f8ull) << std::hex << "digest 0x" << fnv.h;
}

}  // namespace
}  // namespace h2p
