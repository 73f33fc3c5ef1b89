#include "core/backlog.hpp"

#include <algorithm>
#include <cmath>

#include "core/matching_tier.hpp"
#include "core/upload_pair.hpp"
#include "util/check.hpp"

namespace sic::core {

double solo_drain_airtime(const BacklogClient& client,
                          const phy::RateAdapter& adapter,
                          double packet_bits) {
  SIC_CHECK(client.packets >= 0);
  // An empty queue takes no time, even on a link no rate serves.
  if (client.packets == 0) return 0.0;
  return client.packets * solo_airtime(client.link, adapter, packet_bits);
}

DrainPlan best_drain_plan(const BacklogClient& a, const BacklogClient& b,
                          const phy::RateAdapter& adapter,
                          const BacklogOptions& options) {
  SIC_CHECK_MSG(a.link.noise == b.link.noise,
                "drain plan assumes a common receiver noise floor");
  SIC_CHECK(a.packets >= 0 && b.packets >= 0);
  const double bits = options.packet_bits;
  const double ta = solo_airtime(a.link, adapter, bits);
  const double tb = solo_airtime(b.link, adapter, bits);

  DrainPlan best;
  best.mode = DrainMode::kSerial;
  best.airtime = solo_drain_airtime(a, adapter, bits) +
                 solo_drain_airtime(b, adapter, bits);

  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, a.link.noise, adapter,
                              bits);
  const auto rates = sic_rates(ctx);
  const double z_plus = sic_airtime(ctx);
  if (!std::isfinite(z_plus)) return best;

  // Per-packet concurrent times by client role.
  const bool a_is_stronger = a.link.rss >= b.link.rss;
  const double t_sic_a = airtime_seconds(
      bits, a_is_stronger ? rates.stronger : rates.weaker);
  const double t_sic_b = airtime_seconds(
      bits, a_is_stronger ? rates.weaker : rates.stronger);

  // Discipline 2: lockstep SIC rounds, leftovers serial.
  {
    const int m = std::min(a.packets, b.packets);
    const double time = m * z_plus + (a.packets - m) * ta +
                        (b.packets - m) * tb;
    if (time < best.airtime) {
      best = DrainPlan{DrainMode::kSicRounds, time, m};
    }
  }

  // Discipline 3: packed trains — the faster concurrent link stuffs
  // multiple packets under each slower packet.
  if (options.enable_packing) {
    const bool a_is_fast = t_sic_a <= t_sic_b;
    const double t_fast = a_is_fast ? t_sic_a : t_sic_b;
    const double t_slow = a_is_fast ? t_sic_b : t_sic_a;
    const double t_fast_clean = a_is_fast ? ta : tb;
    const double t_slow_clean = a_is_fast ? tb : ta;
    int q_fast = a_is_fast ? a.packets : b.packets;
    int q_slow = a_is_fast ? b.packets : a.packets;
    double time = 0.0;
    int trains = 0;
    while (q_slow > 0 && q_fast > 0) {
      const int k = std::clamp(
          static_cast<int>(std::floor(t_slow / t_fast)), 1, q_fast);
      time += std::max(t_slow, k * t_fast);
      q_slow -= 1;
      q_fast -= k;
      ++trains;
    }
    time += q_slow * t_slow_clean + q_fast * t_fast_clean;
    if (time < best.airtime) {
      best = DrainPlan{DrainMode::kPackedTrains, time, trains};
    }
  }
  return best;
}

double serial_backlog_airtime(std::span<const BacklogClient> clients,
                              const phy::RateAdapter& adapter,
                              double packet_bits) {
  double total = 0.0;
  for (const auto& c : clients) {
    total += solo_drain_airtime(c, adapter, packet_bits);
  }
  return total;
}

BacklogSchedule schedule_backlog_upload(std::span<const BacklogClient> clients,
                                        const phy::RateAdapter& adapter,
                                        const BacklogOptions& options) {
  const std::size_t n = clients.size();
  std::vector<double> solo(n);
  for (std::size_t i = 0; i < n; ++i) {
    solo[i] = solo_drain_airtime(clients[i], adapter, options.packet_bits);
  }
  PairingReduction reduction;
  reduction.begin(solo);
  const std::span<const int> vertices = reduction.vertices();
  // Plans of the matched pairs, indexed (first, second) by client.
  std::vector<DrainPlan> plans(n * n);
  for (std::size_t u = 0; u < vertices.size(); ++u) {
    const std::size_t i = static_cast<std::size_t>(vertices[u]);
    for (std::size_t v = u + 1; v < vertices.size(); ++v) {
      const std::size_t j = static_cast<std::size_t>(vertices[v]);
      plans[i * n + j] =
          best_drain_plan(clients[i], clients[j], adapter, options);
      reduction.set_cost(static_cast<int>(u), static_cast<int>(v),
                         plans[i * n + j].airtime);
    }
  }
  reduction.solve(options.pairing, options.auto_tier_threshold,
                  Decibels{0.0});

  BacklogSchedule schedule;
  for (const ReducedSlot& s : reduction.slots()) {
    schedule.slots.push_back(BacklogSlot{
        s.first, s.second,
        s.second < 0 ? DrainPlan{DrainMode::kSerial, s.airtime, 0}
                     : plans[static_cast<std::size_t>(s.first) * n +
                             static_cast<std::size_t>(s.second)]});
  }
  schedule.total_airtime = reduction.total_airtime();
  return schedule;
}

}  // namespace sic::core
