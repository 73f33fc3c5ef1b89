#ifndef SICMAC_MAC_ACCESS_POINT_HPP
#define SICMAC_MAC_ACCESS_POINT_HPP

/// \file access_point.hpp
/// The upload-side AP: receives data frames (possibly two at once via the
/// medium's SIC receiver model) and returns ACKs after SIFS, serializing
/// back-to-back ACKs when a collision yielded two decodes.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mac/event_queue.hpp"
#include "mac/medium.hpp"

namespace sic::mac {

struct ApStats {
  std::uint64_t data_received = 0;
  std::uint64_t acks_sent = 0;
  /// Receptions of a (src, frame id) pair the AP had already decoded — a
  /// retransmission whose original delivery succeeded but whose ACK never
  /// made it back (the ACK-vs-latency tension the upload_sim note cites).
  std::uint64_t duplicate_data = 0;
};

class AccessPoint : public MediumListener {
 public:
  AccessPoint(EventQueue& queue, Medium& medium, MacNodeId id);

  /// Returns the AP to the state the constructor leaves, keeping its
  /// storage, and re-attaches it to the medium — call after the medium's
  /// own reset().
  void reset();

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  [[nodiscard]] const ApStats& stats() const { return stats_; }
  [[nodiscard]] MacNodeId id() const { return id_; }

  /// Frames received per source station.
  [[nodiscard]] std::uint64_t received_from(MacNodeId src) const;

  void on_frame_received(const Frame& frame, bool decoded) override;

 private:
  void pump_acks();

  EventQueue* queue_;
  Medium* medium_;
  MacNodeId id_;
  /// FIFO of control frames to send: [ack_head_, size) is pending; the
  /// vector is rewound whenever it drains.
  std::vector<Frame> ack_backlog_;
  std::size_t ack_head_ = 0;
  SimTime next_ack_ready_ = 0;
  bool ack_scheduled_ = false;
  ApStats stats_;
  std::vector<std::uint64_t> per_source_;
  /// (source, frame id) pairs already received, sorted (retransmissions
  /// keep the original id, as 802.11 retries keep their sequence number).
  std::vector<std::pair<MacNodeId, std::uint64_t>> seen_ids_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_ACCESS_POINT_HPP
