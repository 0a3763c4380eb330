// The node-fault model of the paper: fail-stop node faults (assumption 1),
// perfectly diagnosed by neighbors (assumption 2). A FaultSet is a dense
// bitset over node ids with O(1) query/update and O(N/64) iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/contracts.hpp"

namespace slcube::fault {

class FaultSet {
 public:
  FaultSet() = default;

  explicit FaultSet(std::uint64_t num_nodes)
      : num_nodes_(num_nodes), words_((num_nodes + 63) / 64, 0) {}

  /// Construct with an initial list of faulty nodes.
  FaultSet(std::uint64_t num_nodes, std::initializer_list<NodeId> faulty)
      : FaultSet(num_nodes) {
    for (NodeId a : faulty) mark_faulty(a);
  }

  [[nodiscard]] std::uint64_t num_nodes() const noexcept { return num_nodes_; }

  [[nodiscard]] bool is_faulty(NodeId a) const noexcept {
    SLC_ASSERT(a < num_nodes_);
    return (words_[a >> 6] >> (a & 63)) & 1u;
  }
  [[nodiscard]] bool is_healthy(NodeId a) const noexcept {
    return !is_faulty(a);
  }

  void mark_faulty(NodeId a) noexcept {
    SLC_ASSERT(a < num_nodes_);
    std::uint64_t& w = words_[a >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (a & 63);
    count_ += (w & bit) ? 0u : 1u;
    w |= bit;
  }

  /// A previously faulty node recovers (Section 2.2 discusses recovery).
  void mark_healthy(NodeId a) noexcept {
    SLC_ASSERT(a < num_nodes_);
    std::uint64_t& w = words_[a >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (a & 63);
    count_ -= (w & bit) ? 1u : 0u;
    w &= ~bit;
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
    count_ = 0;
  }

  /// Number of faulty nodes.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t healthy_count() const noexcept {
    return num_nodes_ - count_;
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Ids of all faulty nodes, ascending.
  [[nodiscard]] std::vector<NodeId> faulty_nodes() const;
  /// Ids of all healthy nodes, ascending.
  [[nodiscard]] std::vector<NodeId> healthy_nodes() const;

  /// Call f(node) for every faulty node, ascending — the allocation-free
  /// form of faulty_nodes() for per-trial hot paths (O(N/64) scan).
  template <typename F>
  void for_each_faulty(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      bits::for_each_set64(words_[w], [&](unsigned b) {
        f(static_cast<NodeId>(w * 64 + b));
      });
    }
  }

  /// The backing bitset words (64 nodes per word, node a in word a/64 bit
  /// a%64), for word-at-a-time consumers.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  friend bool operator==(const FaultSet&, const FaultSet&) = default;

 private:
  std::uint64_t num_nodes_ = 0;
  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace slcube::fault
