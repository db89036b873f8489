// The two emulator workloads: the paper's sender pipeline driven through
// MulticastSession::step_into over emulated 60 GHz channels.
//
//   live-static   4 users at 4 m, static channels; every frame is encoded
//                 live (core::make_frame_context) and then stepped. The
//                 beam cache hits every frame, so video encode and quality
//                 features dominate and the scheduler is nearly idle.
//   mobile-crowd  12 users, two of them walking (Fig. 17), deadline off,
//                 pre-encoded contexts cycled. Every third frame carries a
//                 new beacon whose CSI re-beamforms every subset holding a
//                 walker, so the exhaustive group lattice at the hierarchy
//                 threshold dominates and video encode is idle.
#include "harness.h"

#include "channel/mobility.h"
#include "core/frame_context.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "quality/metrics.h"
#include "video/layered.h"
#include "video/synthetic.h"

#include <cstring>
#include <memory>

namespace perfbench {
namespace {

using namespace w4k;

constexpr int kWidth = 256;
constexpr int kHeight = 144;

struct EmuSpec {
  const char* name;
  std::size_t users;
  std::size_t frames;
  bool live;  ///< encode each frame live; else cycle pre-encoded contexts
};

// live-static: 300 frames leave 30 samples beyond p90. mobile-crowd: 150
// frames (50 beacons) leave 15 beyond p90, the fewest that do, so that a
// run still holds several replays.
constexpr EmuSpec kLiveStatic{"live-static", 4, 300, true};
constexpr EmuSpec kMobileCrowd{"mobile-crowd", 12, 150, false};
constexpr int kContexts = 6;          ///< pre-encoded contexts (mobile)
/// The room geometry (user placement, walker paths) is part of each
/// workload's definition, not of its seed: how many users share a beam
/// moves decoded fraction and SSIM by 20% from one placement to the
/// next, which would swamp every regression bound. The seed drives the
/// rest of the inputs: the video content, the per-subset beamforming
/// seeds and the emulated packet-loss draws.
constexpr std::uint64_t kGeometrySeed = 1;
constexpr int kFramesPerBeacon = 3;   ///< 30 fps over 100 ms beacons

double seconds_since(double t0) { return now_s() - t0; }

double stage_ms_per_call(const char* name) {
  const obs::Stage& s = obs::stage(name);
  return s.count() ? static_cast<double>(s.total_ns()) / 1e6 /
                         static_cast<double>(s.count())
                   : 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

class EmuWorkload : public Workload {
 public:
  EmuWorkload(const EmuSpec& spec, const RunConfig& cfg)
      : spec_(spec), cfg_(cfg),
        symbol_size_(core::scaled_symbol_size(kWidth, kHeight)) {
    // Inputs, generated once and never timed: the clip from the seed
    // (rendered up front for the live pipeline) and the fixed placement.
    video::VideoSpec vs = video::standard_videos(
        kWidth, kHeight, spec.live ? static_cast<int>(spec.frames)
                                   : kContexts)[0];
    vs.seed = cfg.seed;
    clip_spec_ = vs;
    if (spec.live) {
      const video::SyntheticVideo clip(vs);
      for (int t = 0; t < clip.frame_count(); ++t)
        raw_.push_back(clip.frame(t));
    }
    Rng rng(kGeometrySeed);
    if (spec.live)
      placement_ = core::place_users_fixed(spec.users, 4.0, 1.047, rng);
  }

  std::size_t frames() const override { return spec_.frames; }

  void setup(SetupTimes& st) override {
    double t0 = now_s();
    model_ = std::make_unique<model::QualityModel>(42);
    core::PretrainedOptions opts;
    opts.cache_path = cfg_.model_cache;
    trained_in_setup_ |= core::ensure_trained(*model_, opts) > 0.0;
    st.part("model", seconds_since(t0));

    if (!spec_.live) {
      t0 = now_s();
      contexts_ = core::make_contexts(video::SyntheticVideo(clip_spec_),
                                      kContexts, symbol_size_);
      st.part("contexts", seconds_since(t0));
    }

    t0 = now_s();
    if (spec_.live) {
      channels_ = core::channels_for(channel::PropagationConfig{},
                                     placement_);
    } else {
      channel::MovingReceiverConfig mc;
      mc.n_users = spec_.users;
      mc.moving.assign(spec_.users, false);
      mc.moving[0] = mc.moving[1] = true;  // two walkers, the rest static
      mc.min_distance = 2.5;
      mc.max_distance = 7.5;
      mc.duration = channel::kBeaconInterval *
                    static_cast<double>(spec_.frames / kFramesPerBeacon + 1);
      mc.seed = kGeometrySeed;
      trace_ = channel::moving_receiver_trace(mc);
    }
    st.part("channels", seconds_since(t0));

    t0 = now_s();
    session_ = std::make_unique<core::MulticastSession>(
        session_config(), *model_, beamforming::Codebook{});
    st.part("session", seconds_since(t0));
    outcome_ = core::FrameOutcome{};
    cur_.clear();
    totals_ = Totals{};
  }

  bool frame(std::size_t f, Tracer* t) override {
    const core::FrameContext* ctx = nullptr;
    if (spec_.live) {
      Timed timed(t, "core::make_frame_context", "core.context_ms", f);
      live_ctx_ = core::make_frame_context(raw_[f], nullptr, symbol_size_);
      ctx = &live_ctx_;
    } else {
      ctx = &contexts_[f % contexts_.size()];
    }
    {
      Timed timed(t, "MulticastSession::step_into", "core.step_ms", f);
      session_->step_into(decision_csi(f), true_csi(f), *ctx, no_faults_,
                          outcome_);
    }
    fingerprint(*ctx);
    return true;
  }

  void probe_layers(std::size_t f, Tracer& t) override {
    // Twin calls, outside the frame time: the live pipeline's two halves
    // separately, and the decision path on a twin session fed the same
    // CSI, so decide() latency is measured without the transmit side.
    const core::FrameContext& ctx =
        spec_.live ? live_ctx_ : contexts_[f % contexts_.size()];
    if (spec_.live) {
      video::EncodedFrame enc;
      {
        Timed timed(&t, "video::encode", "video.encode_ms", f);
        enc = video::encode(raw_[f]);
      }
      Timed timed(&t, "quality::content_features", "quality.features_ms", f);
      (void)quality::content_features(raw_[f], enc);
    }
    if (!twin_) {
      twin_ = std::make_unique<core::MulticastSession>(
          session_config(), *model_, beamforming::Codebook{});
      exclude_.assign(spec_.users, 0);
    }
    {
      Timed timed(&t, "MulticastSession::decide_into", "sched.decide_ms", f);
      twin_->decide_into(decision_csi(f), ctx, exclude_, decision_);
    }
    groups_ += decision_.groups.size();
    ++decisions_;
  }

  void end_replay(Report& r) override {
    if (trained_in_setup_)
      r.fail("quality model was trained inside the timed set-up");
    if (ref_.empty()) {
      ref_ = cur_;
      ref_totals_ = totals_;
    } else if (cur_.size() != ref_.size() ||
               std::memcmp(cur_.data(), ref_.data(),
                           cur_.size() * sizeof(double)) != 0) {
      r.fail(std::string(spec_.name) +
             ": replay outcome differs from the first replay (SSIM, "
             "decoded units or packet counts)");
    }
    for (std::size_t i = 0; i < cur_.size(); ++i)
      if (!(cur_[i] >= 0.0)) {
        r.fail(std::string(spec_.name) + ": negative or NaN outcome value");
        break;
      }
  }

  void teardown() override {
    twin_.reset();
    session_.reset();
    contexts_.clear();
  }

  void add_outcome_metrics(const ReplayTimes& t, Report& r) override {
    const double samples = static_cast<double>(spec_.frames * spec_.users);
    const double frame_s = sum(t.minima()) / 1e3;
    r.add("ssim_mean", ref_totals_.ssim / samples, "ssim");
    r.add("decoded_frac", ref_totals_.decoded / samples, "ratio");
    r.add("goodput_gbps",
          frame_s > 0.0 ? ref_totals_.decoded_bits / frame_s / 1e9 : 0.0,
          "Gbit/s");
    r.add("delivered_frac",
          ref_totals_.offered > 0.0 ? ref_totals_.sent / ref_totals_.offered
                                    : 0.0,
          "ratio");
  }

  void add_layer_metrics(const ReplayTimes& traced, const Tracer& t,
                         Report& r) override {
    const LayerTimes& L = t.layers();
    r.add("video.encode_ms_p50", L.percentile("video.encode_ms", 0.5), "ms");
    r.add("quality.features_ms_p50",
          L.percentile("quality.features_ms", 0.5), "ms");
    r.add("core.context_ms_p50", L.percentile("core.context_ms", 0.5), "ms");
    r.add("core.step_ms_p50", L.percentile("core.step_ms", 0.5), "ms");
    r.add("sched.decide_ms_p50", L.percentile("sched.decide_ms", 0.5), "ms");
    r.add("sched.decide_ms_p90", L.percentile("sched.decide_ms", 0.9), "ms");

    // Stage aggregates from the program's own obs registry. The sched
    // stages run once per decide (session and twin alike), so their
    // per-call mean is the per-frame cost; the emu/quality stages run
    // only in the session, once per frame.
    const double beamform = stage_ms_per_call("session.beamform");
    const double allocate = stage_ms_per_call("session.allocate");
    const double unitmap = stage_ms_per_call("session.unitmap");
    const double frames_stepped =
        static_cast<double>(obs::stage("session.frame").count());
    const auto per_frame = [&](const char* name) {
      return frames_stepped > 0.0
                 ? static_cast<double>(obs::stage(name).total_ns()) / 1e6 /
                       frames_stepped
                 : 0.0;
    };
    const double transmit = per_frame("session.transmit");
    const double recon = per_frame("session.quality");
    r.add("sched.beamform_ms_mean", beamform, "ms");
    r.add("sched.allocate_ms_mean", allocate, "ms");
    r.add("sched.unitmap_ms_mean", unitmap, "ms");
    r.add("sched.groups_per_frame", ratio(groups_, decisions_), "count");
    r.add("sched.beam_cache_hit_frac",
          ratio(counter("sched.beam_cache.hit"),
                counter("sched.beam_cache.hit") +
                    counter("sched.beam_cache.miss")),
          "ratio");
    r.add("sched.warm_start_hit_frac",
          ratio(counter("sched.warm_start.hits"),
                counter("sched.warm_start.hits") +
                    counter("sched.warm_start.fallbacks")),
          "ratio");
    r.add("sched.iterations_per_frame",
          ratio(counter("sched.iterations"), counter("sched.optimize_calls")),
          "count");
    r.add("quality.recon_ssim_ms_mean", recon, "ms");
    r.add("emu.transmit_ms_mean", transmit, "ms");
    r.add("emu.makeup_ms_mean", per_frame("emu.makeup"), "ms");

    const Totals& o = ref_totals_;
    r.add("emu.packets_per_frame",
          o.sent / static_cast<double>(spec_.frames), "count");
    r.add("emu.makeup_frac", o.sent > 0.0 ? o.makeup / o.sent : 0.0,
          "ratio");

    // Unattributed remainder, from plain means on both sides (the stage
    // aggregates are plain totals). The twin's decide calls feed the sched
    // stages too, at the same per-call cost.
    r.add("frame.other_ms",
          traced.mean_all() - L.mean_all("core.context_ms") - beamform -
              allocate - unitmap - transmit - recon,
          "ms");
  }

  void echo(Report& r) const {
    r.echo("users", std::to_string(spec_.users));
    r.echo("resolution",
           std::to_string(kWidth) + "x" + std::to_string(kHeight));
  }

 private:
  /// Outcome sums over users x frames of one replay.
  struct Totals {
    double ssim = 0.0, decoded = 0.0, decoded_bits = 0.0;
    double sent = 0.0, offered = 0.0, makeup = 0.0;
  };

  core::SessionConfig session_config() const {
    core::SessionConfig c = core::SessionConfig::scaled(kWidth, kHeight);
    c.seed = cfg_.seed;
    if (!spec_.live) c.mcs_margin_db = 1.5;  // stale-CSI headroom
    return c;
  }

  const std::vector<linalg::CVector>& true_csi(std::size_t f) const {
    if (spec_.live) return channels_;
    return trace_.snapshots[f / kFramesPerBeacon];
  }

  /// The sender acts on the previous beacon (one-beacon staleness).
  const std::vector<linalg::CVector>& decision_csi(std::size_t f) const {
    if (spec_.live) return channels_;
    const std::size_t b = f / kFramesPerBeacon;
    return trace_.snapshots[b > 0 ? b - 1 : 0];
  }

  /// Appends frame f's outcome to the replay's fingerprint (compared bit
  /// for bit across replays) and to its totals.
  void fingerprint(const core::FrameContext& ctx) {
    const auto& o = outcome_;
    cur_.insert(cur_.end(), o.ssim.begin(), o.ssim.end());
    cur_.insert(cur_.end(), o.decoded_fraction.begin(),
                o.decoded_fraction.end());
    cur_.push_back(static_cast<double>(o.stats.packets_sent));
    cur_.push_back(static_cast<double>(o.stats.packets_offered));
    cur_.push_back(static_cast<double>(o.stats.makeup_packets));
    double payload_bytes = 0.0;
    for (const auto& u : ctx.units)
      payload_bytes += static_cast<double>(u.source_bytes);
    for (std::size_t u = 0; u < o.ssim.size(); ++u) {
      totals_.ssim += o.ssim[u];
      totals_.decoded += o.decoded_fraction[u];
      totals_.decoded_bits += o.decoded_fraction[u] * payload_bytes * 8.0;
    }
    totals_.sent += static_cast<double>(o.stats.packets_sent);
    totals_.offered += static_cast<double>(o.stats.packets_offered);
    totals_.makeup += static_cast<double>(o.stats.makeup_packets);
  }

  EmuSpec spec_;
  RunConfig cfg_;
  std::size_t symbol_size_;
  video::VideoSpec clip_spec_;
  std::vector<video::Frame> raw_;
  std::vector<channel::Position> placement_;
  const fault::FrameFaults no_faults_;

  // Per-replay state.
  std::unique_ptr<model::QualityModel> model_;
  std::vector<core::FrameContext> contexts_;
  core::FrameContext live_ctx_;
  std::vector<linalg::CVector> channels_;
  channel::CsiTrace trace_;
  std::unique_ptr<core::MulticastSession> session_;
  core::FrameOutcome outcome_;
  bool trained_in_setup_ = false;

  // Traced-replay twins.
  std::unique_ptr<core::MulticastSession> twin_;
  core::MulticastSession::Decision decision_;
  std::vector<std::uint8_t> exclude_;
  std::size_t groups_ = 0;
  std::size_t decisions_ = 0;

  std::vector<double> ref_, cur_;  ///< outcome fingerprints
  Totals totals_, ref_totals_;
};

void run_emu(const EmuSpec& spec, const RunConfig& cfg, Report& r) {
  EmuWorkload w(spec, cfg);
  w.echo(r);
  run_workload(w, cfg, r);
}

}  // namespace

void run_live_static(const RunConfig& cfg, Report& r) {
  run_emu(kLiveStatic, cfg, r);
}

void run_mobile_crowd(const RunConfig& cfg, Report& r) {
  run_emu(kMobileCrowd, cfg, r);
}

}  // namespace perfbench
