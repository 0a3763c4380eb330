// PackedLevels — bit-packed structure-of-arrays storage for safety levels.
//
// A safety level is an integer 0..n with n <= topo::Hypercube::kMaxDimension,
// so 5 bits suffice; 12 levels share one 64-bit word (60 bits used, the top
// 4 bits always zero). This is the single storage layer behind
// core::SafetyLevels: every table that is stored, published or checked —
// the peel's result, GS's result, the oracles' views, the serving
// snapshots — is packed words, which is what makes a Q20 table (2^20
// nodes) cost ~700 KiB instead of the 1 MiB of a byte-per-level array. The
// level writers (GS rounds, the oracles' cascades) compute on a byte per
// node and pack what they store.
//
// Invariants (maintained by every mutator, relied on by operator==):
//   * the 4 spare top bits of every word are zero;
//   * slots at index >= size() in the last word are zero.
// Writes are word-granular: two threads must never write different slots
// of the same word concurrently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/contracts.hpp"

namespace slcube::core {

class PackedLevels {
 public:
  static constexpr unsigned kBitsPerLevel = 5;
  static constexpr unsigned kLevelsPerWord = 12;  // 12 * 5 = 60 bits used
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1}
                                              << kBitsPerLevel) -
                                             1;
  static_assert(kBitsPerLevel * kLevelsPerWord <= 64,
                "a word must hold kLevelsPerWord slots");

  PackedLevels() = default;
  PackedLevels(std::uint64_t num_levels, std::uint8_t fill)
      : size_(num_levels),
        words_(static_cast<std::size_t>((num_levels + kLevelsPerWord - 1) /
                                        kLevelsPerWord),
              0) {
    this->fill(fill);
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::uint8_t get(std::uint64_t i) const noexcept {
    SLC_ASSERT(i < size_);
    return static_cast<std::uint8_t>(
        (words_[static_cast<std::size_t>(i / kLevelsPerWord)] >>
         (kBitsPerLevel * (i % kLevelsPerWord))) &
        kSlotMask);
  }

  void set(std::uint64_t i, std::uint8_t v) noexcept {
    SLC_ASSERT(i < size_);
    SLC_ASSERT(v <= kSlotMask);
    const unsigned shift =
        kBitsPerLevel * static_cast<unsigned>(i % kLevelsPerWord);
    std::uint64_t& w = words_[static_cast<std::size_t>(i / kLevelsPerWord)];
    w = (w & ~(kSlotMask << shift)) | (std::uint64_t{v} << shift);
  }

  /// Set every slot to `v` (tail slots beyond size() stay zero).
  void fill(std::uint8_t v) noexcept {
    SLC_ASSERT(v <= kSlotMask);
    std::uint64_t pattern = 0;
    for (unsigned s = 0; s < kLevelsPerWord; ++s) {
      pattern |= std::uint64_t{v} << (kBitsPerLevel * s);
    }
    for (std::uint64_t& w : words_) w = pattern;
    clear_tail();
  }

  /// The packed words (read-only). Word i holds slots
  /// [i * kLevelsPerWord, (i + 1) * kLevelsPerWord).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Bytes of table storage per stored level — the BENCH_MEGA_CUBE
  /// "bytes/node" numerator is words * 8 over size().
  [[nodiscard]] std::uint64_t storage_bytes() const noexcept {
    return static_cast<std::uint64_t>(words_.size()) * sizeof(std::uint64_t);
  }

  friend bool operator==(const PackedLevels&, const PackedLevels&) = default;

 private:
  /// Zero the slots at index >= size() in the last word (equality is
  /// word-wise, so tail garbage must never exist).
  void clear_tail() noexcept {
    const unsigned used = static_cast<unsigned>(size_ % kLevelsPerWord);
    if (used == 0 || words_.empty()) return;
    words_.back() &= (std::uint64_t{1} << (kBitsPerLevel * used)) - 1;
  }

  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Deterministic order-insensitive digest of a packed table (position-
/// salted xor fold over the words) — what BENCH_MEGA_CUBE pins per dim.
[[nodiscard]] std::uint64_t packed_digest(const PackedLevels& levels) noexcept;

}  // namespace slcube::core
