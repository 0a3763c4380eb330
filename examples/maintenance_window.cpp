// A "rolling maintenance window" on the message-level simulator: nodes of
// a Q7 machine die one by one while application unicasts keep flowing.
// After each failure, the state-change-driven GS discipline (Section 2.2)
// re-stabilizes the safety levels with a small message cascade — this
// example prints how cheap those cascades are compared to periodic
// re-floods, and how unicast quality degrades as damage accumulates.
//
//   $ ./maintenance_window [dimension=7] [failures=12] [seed=7]
#include <cstdio>
#include <cstdlib>

#include "common/format.hpp"
#include "sim/protocol_gs.hpp"
#include "sim/protocol_unicast.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const unsigned n = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 7;
  const unsigned failures =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 12;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 7;

  const topo::Hypercube cube(n);
  sim::Network net(cube, fault::FaultSet(cube.num_nodes()));
  Xoshiro256ss rng(seed);

  // The periodic discipline would cost this much per wave:
  const std::uint64_t wave_cost = cube.num_nodes() * cube.dimension();
  std::printf("Q%u: one periodic announcement wave = %llu messages\n\n", n,
              static_cast<unsigned long long>(wave_cost));
  std::printf("%8s %10s %12s %12s %10s %10s\n", "failure", "cascade",
              "quiesce_at", "delivered", "optimal", "refused");

  for (unsigned step = 1; step <= failures; ++step) {
    // Pick a healthy victim and let the state-change cascade run.
    NodeId victim;
    do {
      victim = static_cast<NodeId>(rng.below(cube.num_nodes()));
    } while (net.faults().is_faulty(victim));
    const auto cascade = sim::stabilize_after_failures(net, {victim});

    // Application traffic: 200 random unicasts on the stabilized machine.
    unsigned delivered = 0, optimal = 0, refused = 0, sent = 0;
    for (int t = 0; t < 200; ++t) {
      const auto pair = workload::sample_uniform_pair(net.faults(), rng);
      if (!pair) break;
      ++sent;
      const auto r = sim::route_unicast_sim(net, pair->s, pair->d);
      delivered += r.delivered() ? 1u : 0u;
      optimal += r.status == core::RouteStatus::kDeliveredOptimal ? 1u : 0u;
      refused += r.status == core::RouteStatus::kSourceRefused ? 1u : 0u;
    }
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%u/%u", delivered, sent);
    std::printf("%8s %10llu %12llu %12s %10u %10u\n",
                to_bits(victim, n).c_str(),
                static_cast<unsigned long long>(cascade.messages),
                static_cast<unsigned long long>(cascade.quiesced_at),
                ratio, optimal, refused);
  }

  std::printf("\ntotal level-update messages across the whole window: %llu "
              "(vs %llu for per-failure periodic floods)\n",
              static_cast<unsigned long long>(
                  net.stats().level_updates_sent),
              static_cast<unsigned long long>(wave_cost * failures));
  return 0;
}
