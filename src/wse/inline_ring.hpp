#pragma once

// Fixed-capacity FIFO stored inline: the simulator's model of a bounded
// hardware queue (router virtual channels, core ramp queues). The hardware
// queues hold a handful of words, so a ring of N slots embedded in its
// owner replaces a heap-allocating node-based queue — no allocation on
// construction, push or pop, and clear() is O(1).
//
// Pushing into a full ring throws std::length_error in every build: the
// queue depths are validated against the capacities at construction
// (Fabric/TileCore), so a push past capacity is a simulator bug, never
// backpressure.

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace wss::wse {

template <typename T, int N>
class InlineRing {
  static_assert(N > 0 && N <= 255, "capacity must fit the uint8_t counters");

  /// Elements with a `wide` flag (fabric flits) count two halfwords when
  /// wide and one otherwise; the ring keeps the running total.
  static constexpr bool kCountsHalfwords = requires(const T& v) {
    { v.wide } -> std::convertible_to<bool>;
  };

public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == N; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Halfword occupancy in O(1) (wide flits count twice).
  [[nodiscard]] int halfwords() const
    requires kCountsHalfwords
  {
    return halfwords_;
  }

  [[nodiscard]] const T& front() const { return slots_[head_]; }

  void push_back(const T& v) {
    if (size_ == N) throw_full();
    slots_[wrap(head_ + size_)] = v;
    ++size_;
    if constexpr (kCountsHalfwords) halfwords_ += v.wide ? 2 : 1;
  }

  /// Precondition: !empty().
  void pop_front() {
    if constexpr (kCountsHalfwords) halfwords_ -= slots_[head_].wide ? 2 : 1;
    head_ = wrap(head_ + 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    if constexpr (kCountsHalfwords) halfwords_ = 0;
  }

  /// Front-to-back iteration (read-only).
  class const_iterator {
  public:
    const_iterator(const InlineRing* ring, int i) : ring_(ring), i_(i) {}
    const T& operator*() const { return ring_->slots_[ring_->wrap(ring_->head_ + i_)]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

  private:
    const InlineRing* ring_;
    int i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

private:
  static constexpr std::uint8_t wrap(int i) {
    return static_cast<std::uint8_t>(i >= N ? i - N : i);
  }
  [[noreturn]] static void throw_full() {
    throw std::length_error("InlineRing: push past capacity");
  }

  std::array<T, N> slots_{};
  std::uint8_t head_ = 0;
  std::uint8_t size_ = 0;
  std::uint8_t halfwords_ = 0; ///< used only when kCountsHalfwords
};

} // namespace wss::wse
