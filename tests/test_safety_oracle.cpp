// core::SafetyOracle — the incremental safety-level table must be
// bit-identical to a from-scratch compute_safety_levels() after ANY
// interleaving of add_fault / remove_fault / apply. Theorem 1
// (uniqueness of the consistent assignment) is what makes this a fair
// oracle test: there is exactly one right answer per fault set, so a
// randomized sweep over >=10^4 operation sequences across dimensions
// 3..10 leaves the cascade logic nowhere to hide.
#include "core/safety_oracle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"

namespace slcube::core {
namespace {

void expect_matches_scratch(const SafetyOracle& oracle, const char* what) {
  const auto scratch = compute_safety_levels(oracle.cube(), oracle.faults());
  ASSERT_EQ(oracle.levels(), scratch)
      << what << " diverged from compute_safety_levels (dim "
      << oracle.cube().dimension() << ", " << oracle.faults().count()
      << " faults)";
}

/// One apply() batch from `mirror` to `next`: additions and removals in
/// ascending node order. `mirror` becomes `next`.
void move_to(SafetyOracle& oracle, fault::FaultSet& mirror,
             const fault::FaultSet& next) {
  std::vector<NodeId> additions;
  std::vector<NodeId> removals;
  for (NodeId a = 0; a < next.num_nodes(); ++a) {
    if (next.is_faulty(a) != mirror.is_faulty(a)) {
      (next.is_faulty(a) ? additions : removals).push_back(a);
    }
  }
  oracle.apply(additions, removals);
  mirror = next;
}

TEST(SafetyOracle, FaultFreeStartIsAllSafe) {
  const topo::Hypercube q(5);
  const SafetyOracle oracle(q);
  EXPECT_EQ(oracle.faults().count(), 0u);
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    EXPECT_EQ(oracle.levels()[a], 5);
  }
}

TEST(SafetyOracle, ConstructionAtArbitraryFaultSetMatchesScratch) {
  Xoshiro256ss rng(0xAB1E);
  for (unsigned dim = 3; dim <= 8; ++dim) {
    const topo::Hypercube q(dim);
    for (int t = 0; t < 20; ++t) {
      const auto faults =
          fault::inject_uniform(q, rng.below(q.num_nodes() / 2), rng);
      const SafetyOracle oracle(q, faults);
      expect_matches_scratch(oracle, "constructor");
    }
  }
}

TEST(SafetyOracle, SingleAddThenRemoveRoundTrips) {
  const topo::Hypercube q(4);
  SafetyOracle oracle(q);
  oracle.add_fault(0b0101);
  expect_matches_scratch(oracle, "add_fault");
  EXPECT_EQ(oracle.levels()[0b0101], 0);
  oracle.remove_fault(0b0101);
  expect_matches_scratch(oracle, "remove_fault");
  for (NodeId a = 0; a < q.num_nodes(); ++a) {
    EXPECT_EQ(oracle.levels()[a], 4) << "node " << a;
  }
}

TEST(SafetyOracle, ApplyMixedBatchMatchesScratch) {
  const topo::Hypercube q(6);
  fault::FaultSet start(q.num_nodes(), {1, 2, 8, 33});
  SafetyOracle oracle(q, start);
  // One batch that simultaneously adds {4, 5, 20} and removes {2, 33}.
  const NodeId additions[] = {4, 5, 20};
  const NodeId removals[] = {2, 33};
  oracle.apply(additions, removals);
  expect_matches_scratch(oracle, "apply");
  EXPECT_TRUE(oracle.faults().is_faulty(4));
  EXPECT_TRUE(oracle.faults().is_healthy(2));
  EXPECT_TRUE(oracle.faults().is_healthy(33));
  EXPECT_EQ(oracle.faults().count(), 5u);
}

// The headline property test: >=10^4 randomized operation sequences.
// Each sequence starts from a random fault set and performs a random
// interleaving of single adds, single removes, small mixed batches, and
// large batches that jump to an independent sample, checking
// bit-identity with the from-scratch fixed point after EVERY operation. The budget is weighted toward small dimensions
// (cheap scratch recomputation) while still exercising dim 10.
TEST(SafetyOracle, RandomizedInterleavingsMatchScratch) {
  struct Budget {
    unsigned dim;
    int sequences;
  };
  constexpr Budget kBudget[] = {{3, 2000}, {4, 2000}, {5, 2000}, {6, 2000},
                                {7, 1000}, {8, 600},  {9, 300},  {10, 150}};
  int total = 0;
  for (const auto& [dim, sequences] : kBudget) total += sequences;
  ASSERT_GE(total, 10000) << "budget fell below the 10^4-sequence bar";

  Xoshiro256ss rng(0x0C0FFEE);
  for (const auto& [dim, sequences] : kBudget) {
    const topo::Hypercube q(dim);
    const std::uint64_t num = q.num_nodes();
    for (int s = 0; s < sequences; ++s) {
      auto mirror = fault::inject_uniform(q, rng.below(num / 2), rng);
      SafetyOracle oracle(q, mirror);
      const int ops = 3 + static_cast<int>(rng.below(6));
      for (int op = 0; op < ops; ++op) {
        switch (rng.below(4)) {
          case 0: {  // single failure
            const auto healthy = mirror.healthy_nodes();
            if (healthy.empty()) break;
            const NodeId a = healthy[rng.below(healthy.size())];
            mirror.mark_faulty(a);
            oracle.add_fault(a);
            break;
          }
          case 1: {  // single recovery
            const auto faulty = mirror.faulty_nodes();
            if (faulty.empty()) break;
            const NodeId a = faulty[rng.below(faulty.size())];
            mirror.mark_healthy(a);
            oracle.remove_fault(a);
            break;
          }
          case 2: {  // small mixed batch toggle
            fault::FaultSet delta(num);
            const int k = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < k; ++i) {
              delta.mark_faulty(static_cast<NodeId>(rng.below(num)));
            }
            fault::FaultSet next = mirror;
            for (const NodeId a : delta.faulty_nodes()) {
              if (mirror.is_faulty(a)) {
                next.mark_healthy(a);
              } else {
                next.mark_faulty(a);
              }
            }
            move_to(oracle, mirror, next);
            break;
          }
          default: {  // large batch: jump to an independent sample
            move_to(oracle, mirror,
                    fault::inject_uniform(q, rng.below(num / 2), rng));
            break;
          }
        }
        ASSERT_EQ(oracle.faults(), mirror);
        const auto scratch = compute_safety_levels(q, mirror);
        ASSERT_EQ(oracle.levels(), scratch)
            << "dim " << dim << " sequence " << s << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace slcube::core
