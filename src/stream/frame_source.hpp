// Game video encoder model.
//
// Emits encoded frames at the current target frame rate, sized so the
// stream averages the current target bitrate.  Frame sizes follow a
// lognormal distribution (scene-dependent variance, seeded — the simulation
// analogue of the paper's scripted, repeatable Ys gameplay) with periodic
// larger keyframes.  The rate controller retunes bitrate/fps between frames.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/timer.hpp"
#include "stream/frame.hpp"
#include "util/rng.hpp"

namespace cgs::stream {

struct FrameSourceConfig {
  double fps = 60.0;
  Bandwidth bitrate = Bandwidth::mbps(20.0);
  double size_cv = 0.22;        // coefficient of variation of P-frame sizes
  int keyframe_interval = 300;  // frames between keyframes (5 s @ 60 f/s)
  double keyframe_scale = 2.5;  // keyframe size vs mean frame size
};

class FrameSource {
 public:
  using FrameHandler = std::function<void(const Frame&)>;

  FrameSource(sim::Simulator& sim, FrameSourceConfig cfg, Pcg32 rng,
              FrameHandler on_frame);

  void start();
  void stop();

  void set_bitrate(Bandwidth rate) { cfg_.bitrate = rate; }
  void set_fps(double fps);
  [[nodiscard]] Bandwidth bitrate() const { return cfg_.bitrate; }
  [[nodiscard]] double fps() const { return cfg_.fps; }

 private:
  void emit_frame();
  [[nodiscard]] Time frame_interval() const {
    return from_seconds(1.0 / cfg_.fps);
  }

  sim::Simulator& sim_;
  FrameSourceConfig cfg_;
  Pcg32 rng_;
  FrameHandler on_frame_;
  sim::OneShotTimer tick_;
  bool running_ = false;
  std::uint32_t next_id_ = 0;
  int frames_since_key_ = 0;
};

}  // namespace cgs::stream
