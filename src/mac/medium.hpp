#ifndef SICMAC_MAC_MEDIUM_HPP
#define SICMAC_MAC_MEDIUM_HPP

/// \file medium.hpp
/// The broadcast medium of the discrete-event simulator. It tracks ongoing
/// transmissions, answers carrier-sense queries, and — when a transmission
/// ends — decides what its destination decoded, using the same analytic
/// SIC receiver model (phy::SicDecoder) as the closed-form analysis. Up to
/// one interferer is cancellable (the paper's two-signal restriction); any
/// denser pile-up is a loss.

#include <cstdint>
#include <functional>
#include <vector>

#include "mac/event_queue.hpp"
#include "mac/frame.hpp"
#include "mac/phy_params.hpp"
#include "phy/rate_adapter.hpp"
#include "phy/sic_decoder.hpp"
#include "util/units.hpp"

namespace sic::mac {

/// Nodes observe the medium through this interface.
class MediumListener {
 public:
  virtual ~MediumListener() = default;

  /// Some transmission started or ended; carrier-sense state may have
  /// changed anywhere.
  virtual void on_channel_update() {}

  /// A frame addressed to this node finished. \p decoded reflects the SIC
  /// receiver model's verdict.
  virtual void on_frame_received(const Frame& frame, bool decoded) {
    (void)frame;
    (void)decoded;
  }

  /// A frame addressed to *someone else* finished and this node could
  /// decode it (same receiver model) — the overhearing path that feeds the
  /// RTS/CTS virtual carrier sense.
  virtual void on_frame_overheard(const Frame& frame) { (void)frame; }
};

struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed_clean = 0;     ///< failed with no interference
  std::uint64_t failed_collision = 0; ///< failed with >= 1 interferer
  std::uint64_t sic_decodes = 0;      ///< weaker-signal successes via SIC
  std::uint64_t capture_decodes = 0;  ///< stronger-signal successes under
                                      ///< interference
  std::uint64_t injected_failures = 0;  ///< successes converted to failures
                                        ///< by the decode-fault hook
};

class Medium {
 public:
  /// \p adapter and \p queue must outlive the medium.
  Medium(EventQueue& queue, int n_nodes, Milliwatts noise,
         const phy::RateAdapter& adapter,
         phy::SicDecoderConfig decoder_config = {});

  /// Returns the medium to the state the constructor leaves (no gains,
  /// listeners, transmissions, stats or hook; default PHY) for a new run,
  /// keeping its storage. The queue must be reset alongside: transmissions
  /// in flight are forgotten, so their end events must not fire.
  void reset(int n_nodes, Milliwatts noise, const phy::RateAdapter& adapter,
             phy::SicDecoderConfig decoder_config = {});

  /// Symmetric channel gain: RSS of \p tx at \p rx at full power (and vice
  /// versa).
  void set_gain(MacNodeId tx, MacNodeId rx, Milliwatts rss);

  /// One-directional gain, for nodes with asymmetric transmit powers.
  void set_directional_gain(MacNodeId tx, MacNodeId rx, Milliwatts rss);
  [[nodiscard]] Milliwatts gain(MacNodeId tx, MacNodeId rx) const;
  [[nodiscard]] Milliwatts noise() const { return noise_; }
  [[nodiscard]] int n_nodes() const { return n_nodes_; }

  /// Registers the listener for \p node (frames addressed to it + channel
  /// updates). Pass nullptr to detach.
  void attach(MacNodeId node, MediumListener* listener);

  /// Carrier sense at \p node: true when it is itself transmitting or any
  /// ongoing foreign transmission arrives at least phy().cs_above_noise
  /// over the noise floor.
  [[nodiscard]] bool carrier_busy(MacNodeId node) const;

  [[nodiscard]] bool is_transmitting(MacNodeId node) const;

  /// True while any ongoing transmission is addressed to \p node — the
  /// node's own demodulator state, which it knows regardless of whether
  /// the signal clears the energy-detect threshold.
  [[nodiscard]] bool is_receiving(MacNodeId node) const;

  /// Fault-injection hook (see mac/fault_model.hpp): consulted once per
  /// frame when the *destination's* decode would otherwise succeed.
  /// \p sic_path is true when the decode went through cancellation (the
  /// weaker signal of a collision). Returning true converts the success
  /// into a failure, counted under stats().injected_failures. Overhearing
  /// evaluations never consult the hook. Pass nullptr to detach.
  using DecodeFaultHook = std::function<bool(const Frame& frame, bool sic_path)>;
  void set_decode_fault_hook(DecodeFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  /// Starts a transmission; duration = preamble + bits/rate. The frame is
  /// evaluated for decoding at frame.dst when it ends. \p power_scale
  /// models Section 5.2 power reduction.
  void transmit(const Frame& frame, BitsPerSecond rate,
                double power_scale = 1.0);

  [[nodiscard]] SimTime frame_duration(const Frame& frame,
                                       BitsPerSecond rate) const;

  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  PhyParams& mutable_phy() { return phy_; }

 private:
  /// A pooled transmission record. Records are addressed by slot index
  /// and recycled once nothing references them; a recycled slot keeps its
  /// interferer list's capacity, so a warm medium transmits without
  /// allocating.
  struct Transmission {
    Frame frame;
    BitsPerSecond rate;
    double power_scale = 1.0;
    SimTime start = 0;
    SimTime end = 0;
    /// Slots of transmissions that overlapped this one at any point. Only
    /// an active transmission's list is ever read, and every slot it names
    /// stays allocated while it is active.
    std::vector<std::uint32_t> interferers;
  };

  void finish(std::uint32_t slot);
  void notify_channel_update();

  EventQueue* queue_;
  int n_nodes_ = 0;
  Milliwatts noise_{0.0};
  const phy::RateAdapter* adapter_ = nullptr;
  phy::SicDecoder decoder_;
  PhyParams phy_;
  std::vector<Milliwatts> gains_;
  std::vector<MediumListener*> listeners_;
  std::vector<Transmission> pool_;        ///< records, by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;     ///< on air, in start order
  /// Ended transmissions kept while still referenced as interferers of
  /// active ones.
  std::vector<std::uint32_t> recent_;
  std::vector<MacNodeId> overhearers_;    ///< finish() scratch
  MediumStats stats_;
  DecodeFaultHook fault_hook_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_MEDIUM_HPP
