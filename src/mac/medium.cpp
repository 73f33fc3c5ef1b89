#include "mac/medium.hpp"

#include <algorithm>

#include "obs/logger.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"

namespace sic::mac {

Medium::Medium(EventQueue& queue, int n_nodes, Milliwatts noise,
               const phy::RateAdapter& adapter,
               phy::SicDecoderConfig decoder_config)
    : queue_(&queue), decoder_(adapter, decoder_config) {
  reset(n_nodes, noise, adapter, decoder_config);
}

void Medium::reset(int n_nodes, Milliwatts noise,
                   const phy::RateAdapter& adapter,
                   phy::SicDecoderConfig decoder_config) {
  SIC_CHECK(n_nodes >= 1);
  SIC_CHECK(noise.value() > 0.0);
  n_nodes_ = n_nodes;
  noise_ = noise;
  adapter_ = &adapter;
  decoder_ = phy::SicDecoder{adapter, decoder_config};
  phy_ = PhyParams{};
  gains_.assign(static_cast<std::size_t>(n_nodes) * n_nodes, Milliwatts{0.0});
  listeners_.assign(static_cast<std::size_t>(n_nodes), nullptr);
  active_.clear();
  recent_.clear();
  free_slots_.clear();
  for (std::size_t s = pool_.size(); s-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  stats_ = MediumStats{};
  fault_hook_ = nullptr;
}

void Medium::set_gain(MacNodeId tx, MacNodeId rx, Milliwatts rss) {
  SIC_CHECK(tx >= 0 && tx < n_nodes_ && rx >= 0 && rx < n_nodes_ && tx != rx);
  gains_[static_cast<std::size_t>(tx) * n_nodes_ + rx] = rss;
  gains_[static_cast<std::size_t>(rx) * n_nodes_ + tx] = rss;
}

void Medium::set_directional_gain(MacNodeId tx, MacNodeId rx,
                                  Milliwatts rss) {
  SIC_CHECK(tx >= 0 && tx < n_nodes_ && rx >= 0 && rx < n_nodes_ && tx != rx);
  gains_[static_cast<std::size_t>(tx) * n_nodes_ + rx] = rss;
}

Milliwatts Medium::gain(MacNodeId tx, MacNodeId rx) const {
  SIC_DCHECK(tx >= 0 && tx < n_nodes_ && rx >= 0 && rx < n_nodes_);
  return gains_[static_cast<std::size_t>(tx) * n_nodes_ + rx];
}

void Medium::attach(MacNodeId node, MediumListener* listener) {
  SIC_CHECK(node >= 0 && node < n_nodes_);
  listeners_[static_cast<std::size_t>(node)] = listener;
}

bool Medium::carrier_busy(MacNodeId node) const {
  const Milliwatts floor = noise_ * phy_.cs_above_noise.linear();
  for (const std::uint32_t slot : active_) {
    const Transmission& t = pool_[slot];
    if (t.frame.src == node) return true;  // own transmission
    const Milliwatts rss = gain(t.frame.src, node) * t.power_scale;
    if (rss >= floor) return true;
  }
  return false;
}

bool Medium::is_transmitting(MacNodeId node) const {
  return std::any_of(active_.begin(), active_.end(), [&](std::uint32_t s) {
    return pool_[s].frame.src == node;
  });
}

bool Medium::is_receiving(MacNodeId node) const {
  return std::any_of(active_.begin(), active_.end(), [&](std::uint32_t s) {
    return pool_[s].frame.dst == node;
  });
}

SimTime Medium::frame_duration(const Frame& frame, BitsPerSecond rate) const {
  SIC_CHECK_MSG(rate.value() > 0.0, "cannot transmit at zero rate");
  return phy_.preamble + from_seconds(frame.payload_bits / rate.value());
}

void Medium::transmit(const Frame& frame, BitsPerSecond rate,
                      double power_scale) {
  SIC_CHECK(frame.src >= 0 && frame.src < n_nodes_);
  SIC_CHECK(power_scale > 0.0 && power_scale <= 1.0);
  SIC_CHECK_MSG(!is_transmitting(frame.src),
                "node is already transmitting (half duplex)");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Transmission& t = pool_[slot];
  t.frame = frame;
  t.rate = rate;
  t.power_scale = power_scale;
  t.start = queue_->now();
  t.end = t.start + frame_duration(frame, rate);
  t.interferers.clear();
  for (const std::uint32_t other : active_) {
    pool_[other].interferers.push_back(slot);
    t.interferers.push_back(other);
  }
  const SimTime end = t.end;
  active_.push_back(slot);
  ++stats_.transmissions;
  // Schedule before notifying: a listener may transmit reentrantly.
  queue_->schedule_at(end, [this, slot] { finish(slot); });
  notify_channel_update();
}

namespace {

enum class DecodeVerdict {
  kCleanOk,
  kCaptureOk,
  kSicOk,
  kFailClean,
  kFailCollision,
  kFailHalfDuplex,
  kFailNoDestination,
};

const char* to_string(DecodeVerdict v) {
  switch (v) {
    case DecodeVerdict::kCleanOk: return "clean";
    case DecodeVerdict::kCaptureOk: return "capture";
    case DecodeVerdict::kSicOk: return "sic";
    case DecodeVerdict::kFailClean: return "fail_clean";
    case DecodeVerdict::kFailCollision: return "fail_collision";
    case DecodeVerdict::kFailHalfDuplex: return "fail_half_duplex";
    case DecodeVerdict::kFailNoDestination: return "no_destination";
  }
  return "?";
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "data";
    case FrameType::kAck: return "ack";
    case FrameType::kRts: return "rts";
    case FrameType::kCts: return "cts";
  }
  return "?";
}

}  // namespace

void Medium::finish(std::uint32_t slot) {
  const auto it = std::find(active_.begin(), active_.end(), slot);
  SIC_CHECK(it != active_.end());
  active_.erase(it);
  // pool_ cannot grow before the listeners run below, so the reference
  // holds until then.
  const Transmission& done = pool_[slot];

  // Decode verdict for an arbitrary receiver — the destination and any
  // overhearers share the same receiver model. Interferers sent by the
  // receiver itself are a half-duplex conflict; of the rest, one is
  // capture/SIC territory and more is a pile-up.
  const auto decode_at = [&](MacNodeId receiver) -> DecodeVerdict {
    bool half_duplex_conflict = false;
    const Transmission* interferer = nullptr;
    std::size_t n_interferers = 0;
    for (const std::uint32_t k : done.interferers) {
      const Transmission& o = pool_[k];
      if (o.frame.src == receiver) {
        half_duplex_conflict = true;
      } else {
        if (n_interferers == 0) interferer = &o;
        ++n_interferers;
      }
    }
    const Milliwatts signal =
        gain(done.frame.src, receiver) * done.power_scale;
    if (half_duplex_conflict) return DecodeVerdict::kFailHalfDuplex;
    if (n_interferers == 0) {
      return adapter_->feasible(done.rate, signal / noise_)
                 ? DecodeVerdict::kCleanOk
                 : DecodeVerdict::kFailClean;
    }
    if (n_interferers == 1) {
      const Transmission& other = *interferer;
      const Milliwatts irss =
          gain(other.frame.src, receiver) * other.power_scale;
      if (signal >= irss) {
        return adapter_->feasible(done.rate, signal / (irss + noise_))
                   ? DecodeVerdict::kCaptureOk
                   : DecodeVerdict::kFailCollision;
      }
      const auto arrival = phy::TwoSignalArrival::make(irss, signal, noise_);
      const auto outcome = decoder_.decode(arrival, other.rate, done.rate);
      return outcome.weaker_decoded ? DecodeVerdict::kSicOk
                                    : DecodeVerdict::kFailCollision;
    }
    return DecodeVerdict::kFailCollision;  // > 2-signal pile-up
  };
  const auto is_success = [](DecodeVerdict v) {
    return v == DecodeVerdict::kCleanOk || v == DecodeVerdict::kCaptureOk ||
           v == DecodeVerdict::kSicOk;
  };

  DecodeVerdict verdict = DecodeVerdict::kFailNoDestination;
  const MacNodeId dst = done.frame.dst;
  if (dst >= 0 && dst < n_nodes_) {
    verdict = decode_at(dst);
    // Fault injection applies to the destination's verdict only, after the
    // physics said yes — overhearers below re-evaluate without the hook.
    if (fault_hook_ && is_success(verdict) &&
        fault_hook_(done.frame, verdict == DecodeVerdict::kSicOk)) {
      verdict = verdict == DecodeVerdict::kCleanOk
                    ? DecodeVerdict::kFailClean
                    : DecodeVerdict::kFailCollision;
      ++stats_.injected_failures;
    }
  }
  // Overhearers: every other attached node that could decode this frame
  // (feeds virtual carrier sense / NAV).
  overhearers_.clear();
  for (MacNodeId n = 0; n < n_nodes_; ++n) {
    if (n == dst || n == done.frame.src) continue;
    if (listeners_[static_cast<std::size_t>(n)] == nullptr) continue;
    if (is_success(decode_at(n))) overhearers_.push_back(n);
  }

  const bool decoded = is_success(verdict);
  // Frame-fate diagnostics, formerly the SICMAC_MEDIUM_LOG env toggle:
  // now --log-level debug / SICMAC_LOG_LEVEL=debug.
  SIC_LOG_DEBUG(
      "medium %9.1fus %-4s src=%d dst=%d bits=%.0f rate=%.2fMbps "
      "start=%.1fus verdict=%s interferers=%zu",
      to_seconds(queue_->now()) * 1e6, frame_type_name(done.frame.type),
      done.frame.src, done.frame.dst, done.frame.payload_bits,
      done.rate.megabits(), to_seconds(done.start) * 1e6, to_string(verdict),
      done.interferers.size());
  // Every transmission becomes a span on its sender's track, its decode
  // verdict an annotation — this is what makes a faulty round visible on
  // the Perfetto timeline.
  if (obs::TraceSink* sink = obs::trace()) {
    const double start_us = to_seconds(done.start) * 1e6;
    const double dur_us = to_seconds(done.end - done.start) * 1e6;
    sink->complete(frame_type_name(done.frame.type), start_us, dur_us,
                   done.frame.src,
                   obs::TraceSink::Args{
                       {"dst", std::to_string(done.frame.dst)},
                       {"verdict", to_string(verdict)},
                       {"interferers", std::to_string(done.interferers.size())},
                   });
  }
  switch (verdict) {
    case DecodeVerdict::kCleanOk: ++stats_.delivered; break;
    case DecodeVerdict::kCaptureOk:
      ++stats_.delivered;
      ++stats_.capture_decodes;
      break;
    case DecodeVerdict::kSicOk:
      ++stats_.delivered;
      ++stats_.sic_decodes;
      break;
    case DecodeVerdict::kFailClean: ++stats_.failed_clean; break;
    case DecodeVerdict::kFailHalfDuplex:
    case DecodeVerdict::kFailCollision: ++stats_.failed_collision; break;
    case DecodeVerdict::kFailNoDestination: break;
  }

  // Keep the ended transmission around while any active one still lists it
  // as an interferer; prune the rest.
  const Frame delivered_frame = done.frame;
  recent_.push_back(slot);
  std::erase_if(recent_, [this](std::uint32_t r) {
    for (const std::uint32_t a : active_) {
      const auto& list = pool_[a].interferers;
      if (std::find(list.begin(), list.end(), r) != list.end()) return false;
    }
    free_slots_.push_back(r);
    return true;
  });

  if (dst >= 0 && dst < n_nodes_ && listeners_[static_cast<std::size_t>(dst)]) {
    listeners_[static_cast<std::size_t>(dst)]->on_frame_received(
        delivered_frame, decoded);
  }
  // Listeners may transmit (growing pool_) but never finish a frame, so
  // overhearers_ is stable while it is walked.
  for (const MacNodeId n : overhearers_) {
    MediumListener* l = listeners_[static_cast<std::size_t>(n)];
    if (l != nullptr) l->on_frame_overheard(delivered_frame);
  }
  notify_channel_update();
}

void Medium::notify_channel_update() {
  for (MediumListener* l : listeners_) {
    if (l != nullptr) l->on_channel_update();
  }
}

}  // namespace sic::mac
