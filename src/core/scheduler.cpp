#include "core/scheduler.hpp"

#include "core/pair_cost_engine.hpp"

namespace sic::core {

double solo_airtime(const channel::LinkBudget& client,
                    const phy::RateAdapter& adapter, double packet_bits) {
  return airtime_seconds(packet_bits, adapter.rate(client.snr()));
}

double serial_upload_airtime(std::span<const channel::LinkBudget> clients,
                             const phy::RateAdapter& adapter,
                             double packet_bits) {
  double total = 0.0;
  for (const auto& c : clients) total += solo_airtime(c, adapter, packet_bits);
  return total;
}

Schedule schedule_upload(std::span<const channel::LinkBudget> clients,
                         const phy::RateAdapter& adapter,
                         const SchedulerOptions& options) {
  // One-shot use of the incremental engine: a full build with every row
  // dirty reproduces the historical from-scratch construction exactly (the
  // engine's cache only ever short-circuits identical recomputations).
  PairCostEngine engine{adapter, options};
  engine.set_clients(clients);
  return engine.schedule();
}

}  // namespace sic::core
