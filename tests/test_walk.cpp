// The walker's early exits (core/walk.hpp): an untraced walk and the
// source decision read only the levels their answer depends on, and
// every answer equals the full scan's.
//
//  * argmax_level on its own, both ways, on random level sequences.
//  * Every node-fault set of Q1–Q4 with its fixed-point table: the four
//    decide functions equal full-scan references kept here, the views'
//    next and spare equal their full scans at every healthy node and
//    every navigation vector, and every route is delivered in exactly H
//    hops under C1 or C2, in H + 2 under C3 alone, and refused otherwise
//    (Theorem 2), the same route traced (full scan) and untraced.
//  * A Q5 fixed point where a scan meets level n − 1 before level n,
//    which no Q1–Q4 fixed point has.
//  * decide_at_source_egs with faulty links and decide_at_source_gh on
//    mixed radices, against their references on random configurations.
#include "core/walk.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/gh_safety.hpp"
#include "core/global_status.hpp"
#include "fault/injection.hpp"

namespace slcube::core {
namespace {

// --- argmax_level -----------------------------------------------------------

/// The argmax over `levels` (key = index), with the number of candidates
/// read. A null `ties` asks for no count, which allows the early exit.
std::optional<unsigned> argmax(const std::vector<unsigned>& levels,
                               unsigned cap, unsigned* ties,
                               unsigned& reads) {
  reads = 0;
  return argmax_level<unsigned>(
      UnicastOptions{}, cap, ties, [&](auto&& visit) {
        for (unsigned i = 0; i < levels.size(); ++i) {
          ++reads;
          if (visit(i, levels[i])) return;
        }
      });
}

/// Both ways: the same answer, a full read with the count, and a read
/// that ends at the first candidate at the cap without it.
void expect_exit_matches_full_scan(const std::vector<unsigned>& levels,
                                   unsigned cap) {
  SCOPED_TRACE(::testing::Message() << "cap " << cap << ", "
                                    << ::testing::PrintToString(levels));
  unsigned ties = 0;
  unsigned full_reads = 0;
  unsigned exit_reads = 0;
  const auto full = argmax(levels, cap, &ties, full_reads);
  const auto early = argmax(levels, cap, nullptr, exit_reads);
  EXPECT_EQ(early, full);
  EXPECT_EQ(full_reads, levels.size());
  unsigned first_at_cap = 0;
  while (first_at_cap < levels.size() && levels[first_at_cap] != cap) {
    ++first_at_cap;
  }
  EXPECT_EQ(exit_reads, first_at_cap < levels.size() ? first_at_cap + 1
                                                     : levels.size());
  unsigned best = 0;
  unsigned count = 0;
  for (const unsigned l : levels) {
    if (l > best) {
      best = l;
      count = 1;
    } else if (l == best && l > 0) {
      ++count;
    }
  }
  EXPECT_EQ(ties, count);
  EXPECT_EQ(full.has_value(), best > 0);
}

TEST(ArgmaxLevel, EarlyExitMatchesFullScan) {
  for (const auto& [levels, cap] :
       std::vector<std::pair<std::vector<unsigned>, unsigned>>{
           {{}, 4},                  // no candidate
           {{0, 0, 0}, 4},           // all faulty
           {{3, 4, 2, 4, 4}, 4},     // ties at the cap
           {{3, 1, 3, 2}, 4},        // no candidate at the cap
           {{4}, 4},                 // the first is at the cap
           {{0, 2, 0, 4}, 4},        // the last is at the cap
           {{0, 1, 0, 1, 1}, 1},     // cap 1, ties
           {{0, 0, 0}, 1},           // cap 1, all zeros
           {{1}, 1}}) {
    expect_exit_matches_full_scan(levels, cap);
  }
  Xoshiro256ss rng(24);
  for (int t = 0; t < 20'000; ++t) {
    const auto cap = static_cast<unsigned>(1 + rng.below(20));
    std::vector<unsigned> levels(rng.below(21));
    for (unsigned& l : levels) l = static_cast<unsigned>(rng.below(cap + 1));
    expect_exit_matches_full_scan(levels, cap);
  }
}

/// kRandom needs the tie count, so a null `ties` keeps the full scan and
/// draws the same tie from the same stream.
TEST(ArgmaxLevel, RandomTieBreakReadsEveryCandidate) {
  const std::vector<unsigned> levels{4, 2, 4, 4, 0, 4};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256ss with_count(seed);
    Xoshiro256ss without(seed);
    UnicastOptions counted{TieBreak::kRandom, &with_count};
    UnicastOptions uncounted{TieBreak::kRandom, &without};
    unsigned ties = 0;
    unsigned reads = 0;
    const auto visit_all = [&](auto&& visit) {
      for (unsigned i = 0; i < levels.size(); ++i) {
        ++reads;
        if (visit(i, levels[i])) return;
      }
    };
    const auto a = argmax_level<unsigned>(counted, 4, &ties, visit_all);
    reads = 0;
    const auto b = argmax_level<unsigned>(uncounted, 4, nullptr, visit_all);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ties, 4u);
    EXPECT_GE(reads, levels.size());  // the first pass read them all
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(levels[*b], 4u);
  }
}

// --- full-scan references ---------------------------------------------------

using Flags = std::tuple<unsigned, bool, bool, bool, bool>;

Flags flags(const SourceDecision& d) {
  return {d.hamming, d.c1, d.c2, d.c3, d.dest_link_faulty};
}

/// C1/C2/C3 as ORs over every neighbor, skipping those behind a faulty
/// link (none, for plain node faults).
SourceDecision reference_decide(const topo::Hypercube& q,
                                const fault::LinkFaultSet& links,
                                EgsViews views, NodeId s, NodeId d) {
  SourceDecision dec;
  const std::uint32_t nav = s ^ d;
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  dec.dest_link_faulty =
      dec.hamming == 1 && links.is_faulty(s, bits::lowest_set(nav));
  dec.c1 = !dec.dest_link_faulty && views.self_view[s] >= dec.hamming;
  for (Dim i = 0; i < q.dimension(); ++i) {
    if (links.is_faulty(s, i)) continue;
    const unsigned level = views.public_view[q.neighbor(s, i)];
    if (bits::test(nav, i)) {
      dec.c2 |= level + 1 >= dec.hamming;
    } else {
      dec.c3 |= level >= dec.hamming + 1;
    }
  }
  return dec;
}

SourceDecision reference_decide_sv(const topo::Hypercube& q,
                                   const SafetyVectors& v, NodeId s,
                                   NodeId d) {
  SourceDecision dec;
  const std::uint32_t nav = s ^ d;
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  dec.c1 = v.bit(s, dec.hamming);
  for (Dim i = 0; i < q.dimension(); ++i) {
    const NodeId b = q.neighbor(s, i);
    if (bits::test(nav, i)) {
      dec.c2 |= dec.hamming == 1 || v.bit(b, dec.hamming - 1);
    } else if (dec.hamming < q.dimension()) {
      dec.c3 |= v.bit(b, dec.hamming + 1);
    }
  }
  return dec;
}

SourceDecision reference_decide_gh(const topo::GeneralizedHypercube& gh,
                                   const SafetyLevels& lv, NodeId s,
                                   NodeId d) {
  SourceDecision dec;
  dec.hamming = gh.distance(s, d);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  dec.c1 = lv[s] >= dec.hamming;
  for (Dim i = 0; i < gh.dimension(); ++i) {
    for (std::uint32_t c = 0; c < gh.radix(i); ++c) {
      if (c == gh.coordinate(s, i)) continue;
      const unsigned level = lv[gh.with_coordinate(s, i, c)];
      if (gh.coordinate(s, i) != gh.coordinate(d, i)) {
        if (c == gh.coordinate(d, i)) dec.c2 |= level + 1 >= dec.hamming;
      } else {
        dec.c3 |= level >= dec.hamming + 1;
      }
    }
  }
  return dec;
}

// --- exhaustive Q1–Q4 -------------------------------------------------------

/// Every fault set of Q1–Q4 (65,812 sets, 3.94M ordered healthy pairs),
/// in four shards of the fault masks so ctest can spread them over jobs.
class ExhaustiveExits : public ::testing::TestWithParam<std::uint32_t> {};

constexpr std::uint32_t kExhaustiveShards = 4;

/// Calls f(q, faults, mask) for every fault set of this shard.
template <typename F>
std::uint64_t for_each_fault_set(std::uint32_t shard, F&& f) {
  std::uint64_t sets = 0;
  for (unsigned n = 1; n <= 4; ++n) {
    const topo::Hypercube q(n);
    const auto nodes = static_cast<NodeId>(q.num_nodes());
    for (std::uint32_t mask = shard; mask < (1u << nodes);
         mask += kExhaustiveShards) {
      fault::FaultSet faults(q.num_nodes());
      for (NodeId a = 0; a < nodes; ++a) {
        if ((mask >> a) & 1u) faults.mark_faulty(a);
      }
      f(q, faults, mask);
      ++sets;
    }
  }
  return sets;
}

/// A quarter of every cube's masks: 65,812 / 4 sets.
constexpr std::uint64_t kSetsPerShard = 1 + 4 + 64 + 16'384;

/// A failure's context, built only when an assertion fails.
::testing::Message where(const topo::Hypercube& q, std::uint32_t mask,
                         NodeId s, NodeId d) {
  return ::testing::Message() << "Q" << q.dimension() << " fault mask "
                              << mask << " s=" << s << " d=" << d;
}

TEST_P(ExhaustiveExits, DecideMatchesFullScan) {
  const std::uint64_t sets = for_each_fault_set(
      GetParam(), [](const topo::Hypercube& q, const fault::FaultSet& faults,
                     std::uint32_t mask) {
        const SafetyLevels lv = compute_safety_levels(q, faults);
        const SafetyVectors sv = compute_safety_vectors(q, faults);
        const fault::LinkFaultSet no_links(q);
        const topo::GeneralizedHypercube gh(
            std::vector<std::uint32_t>(q.dimension(), 2));
        const EgsViews views{lv, lv};
        for (NodeId s = 0; s < q.num_nodes(); ++s) {
          if (faults.is_faulty(s)) continue;
          for (NodeId d = 0; d < q.num_nodes(); ++d) {
            if (d == s || faults.is_faulty(d)) continue;
            const Flags want =
                flags(reference_decide(q, no_links, views, s, d));
            ASSERT_EQ(flags(decide_at_source(q, lv, s, d)), want)
                << where(q, mask, s, d);
            ASSERT_EQ(flags(decide_at_source_egs(q, no_links, views, s, d)),
                      want)
                << where(q, mask, s, d);
            ASSERT_EQ(flags(decide_at_source_gh(gh, lv, s, d)), want)
                << where(q, mask, s, d);
            ASSERT_EQ(flags(decide_at_source_sv(q, sv, s, d)),
                      flags(reference_decide_sv(q, sv, s, d)))
                << where(q, mask, s, d);
          }
        }
      });
  EXPECT_EQ(sets, kSetsPerShard);
}

TEST_P(ExhaustiveExits, NextAndSpareMatchFullScan) {
  const std::uint64_t sets = for_each_fault_set(
      GetParam(), [](const topo::Hypercube& q, const fault::FaultSet& faults,
                     std::uint32_t mask) {
        const SafetyLevels lv = compute_safety_levels(q, faults);
        const SafetyVectors sv = compute_safety_vectors(q, faults);
        const LevelView level_view{q, lv};
        const VectorView vector_view{q, sv};
        const UnicastOptions lowest;
        for (NodeId a = 0; a < q.num_nodes(); ++a) {
          if (faults.is_faulty(a)) continue;
          for (std::uint32_t nav = 1; nav < q.num_nodes(); ++nav) {
            unsigned ties = 0;
            ASSERT_EQ(level_view.next(a, nav, lowest, nullptr),
                      level_view.next(a, nav, lowest, &ties))
                << where(q, mask, a, a ^ nav);
            ASSERT_EQ(level_view.spare(a, nav, lowest, nullptr),
                      level_view.spare(a, nav, lowest, &ties))
                << where(q, mask, a, a ^ nav);
            ASSERT_EQ(vector_view.next(a, nav, lowest, nullptr),
                      vector_view.next(a, nav, lowest, &ties))
                << where(q, mask, a, a ^ nav);
            ASSERT_EQ(vector_view.spare(a, nav, lowest, nullptr),
                      vector_view.spare(a, nav, lowest, &ties))
                << where(q, mask, a, a ^ nav);
          }
        }
      });
  EXPECT_EQ(sets, kSetsPerShard);
}

/// Theorem 2 and refusal at the source: exactly H hops under C1 or C2,
/// exactly H + 2 under C3 alone, refused with nothing sent otherwise,
/// never stuck. The traced walk counts every tie, so it is the full
/// scan; the untraced walk and the GH router on the binary cube take the
/// same route.
TEST_P(ExhaustiveExits, RoutesAreExactAndMatchTheTracedWalk) {
  obs::NullSink sink;
  UnicastOptions traced;
  traced.trace = &sink;
  const std::uint64_t sets = for_each_fault_set(
      GetParam(), [&](const topo::Hypercube& q, const fault::FaultSet& faults,
                      std::uint32_t mask) {
        const SafetyLevels lv = compute_safety_levels(q, faults);
        const topo::GeneralizedHypercube gh(
            std::vector<std::uint32_t>(q.dimension(), 2));
        for (NodeId s = 0; s < q.num_nodes(); ++s) {
          if (faults.is_faulty(s)) continue;
          for (NodeId d = 0; d < q.num_nodes(); ++d) {
            if (d == s || faults.is_faulty(d)) continue;
            const RouteResult r = route_unicast(q, faults, lv, s, d);
            const unsigned h = q.distance(s, d);
            if (r.decision.optimal_feasible()) {
              ASSERT_EQ(r.status, RouteStatus::kDeliveredOptimal)
                  << where(q, mask, s, d);
              ASSERT_EQ(r.hops(), h) << where(q, mask, s, d);
            } else if (r.decision.c3) {
              ASSERT_EQ(r.status, RouteStatus::kDeliveredSuboptimal)
                  << where(q, mask, s, d);
              ASSERT_EQ(r.hops(), h + 2) << where(q, mask, s, d);
            } else {
              ASSERT_EQ(r.status, RouteStatus::kSourceRefused)
                  << where(q, mask, s, d);
              ASSERT_EQ(r.path, (analysis::Path{s})) << where(q, mask, s, d);
            }
            ASSERT_EQ(r.path.back(), r.delivered() ? d : s)
                << where(q, mask, s, d);
            const RouteResult full =
                route_unicast(q, faults, lv, s, d, traced);
            ASSERT_EQ(full.status, r.status) << where(q, mask, s, d);
            ASSERT_EQ(full.path, r.path) << where(q, mask, s, d);
            const RouteResult on_gh = route_unicast_gh(gh, faults, lv, s, d);
            ASSERT_EQ(on_gh.status, r.status) << where(q, mask, s, d);
            ASSERT_EQ(on_gh.path, r.path) << where(q, mask, s, d);
          }
        }
      });
  EXPECT_EQ(sets, kSetsPerShard);
}

INSTANTIATE_TEST_SUITE_P(Walk, ExhaustiveExits,
                         ::testing::Range(std::uint32_t{0}, kExhaustiveShards));

/// No Q1–Q4 fixed point has a node with neighbors at both n − 1 and n,
/// so the enumeration above cannot tell an exit at the cap from one a
/// level below it. In this Q5 fixed point node 13 reads 12 (dim 0) at
/// level 4 before 9 (dim 2) at level 5: the scan must pass the 4.
TEST(EarlyExit, ScanPassesALevelBelowTheCap) {
  const topo::Hypercube q(5);
  const fault::FaultSet faults(q.num_nodes(), {0, 7, 18, 21, 24, 30, 31});
  const SafetyLevels lv = compute_safety_levels(q, faults);
  ASSERT_EQ(lv[12], 4);
  ASSERT_EQ(lv[9], 5);
  const LevelView view{q, lv};
  unsigned ties = 0;
  EXPECT_EQ(view.next(13, 0b00101, UnicastOptions{}, nullptr),
            std::optional<Dim>(2));
  EXPECT_EQ(view.next(13, 0b00101, UnicastOptions{}, &ties),
            std::optional<Dim>(2));
  EXPECT_EQ(route_unicast(q, faults, lv, 13, 8).path,
            (analysis::Path{13, 9, 8}));
}

// --- randomized: link faults and mixed radices ------------------------------

/// decide_at_source_egs skips neighbors behind faulty links: Q4–Q10 with
/// up to 2n node faults and 1..2n faulty links, 20,000 random pairs each.
TEST(EarlyExit, DecideEgsMatchesFullScanWithLinkFaults) {
  Xoshiro256ss rng(0xE617);
  for (unsigned n = 4; n <= 10; n += 2) {
    const topo::Hypercube q(n);
    for (int t = 0; t < 6; ++t) {
      const auto faults = fault::inject_uniform(q, rng.below(2 * n), rng);
      const auto links =
          fault::inject_links_uniform(q, 1 + rng.below(2 * n), rng);
      const EgsResult egs = run_egs(q, faults, links);
      const EgsViews views{egs.public_view, egs.self_view};
      for (int p = 0; p < 20'000; ++p) {
        const auto s = static_cast<NodeId>(rng.below(q.num_nodes()));
        const auto d = static_cast<NodeId>(rng.below(q.num_nodes()));
        if (faults.is_faulty(s) || faults.is_faulty(d)) continue;
        ASSERT_EQ(flags(decide_at_source_egs(q, links, views, s, d)),
                  flags(reference_decide(q, links, views, s, d)))
            << "Q" << n << " trial " << t << " s=" << s << " d=" << d;
      }
    }
  }
}

/// decide_at_source_gh on mixed radices, every healthy pair.
TEST(EarlyExit, DecideGhMatchesFullScan) {
  Xoshiro256ss rng(0x6E);
  for (const std::vector<std::uint32_t>& radices :
       std::vector<std::vector<std::uint32_t>>{
           {3, 3}, {4, 2, 3}, {2, 3, 2, 4}, {5, 3, 2}, {3, 3, 3, 3}}) {
    const topo::GeneralizedHypercube gh(radices);
    for (int t = 0; t < 10; ++t) {
      const auto faults =
          fault::inject_uniform_gh(gh, rng.below(gh.num_nodes() / 4), rng);
      const SafetyLevels lv = run_gs_gh(gh, faults).levels;
      for (NodeId s = 0; s < gh.num_nodes(); ++s) {
        if (faults.is_faulty(s)) continue;
        for (NodeId d = 0; d < gh.num_nodes(); ++d) {
          if (d == s || faults.is_faulty(d)) continue;
          ASSERT_EQ(flags(decide_at_source_gh(gh, lv, s, d)),
                    flags(reference_decide_gh(gh, lv, s, d)))
              << ::testing::PrintToString(radices) << " trial " << t
              << " s=" << s << " d=" << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace slcube::core
