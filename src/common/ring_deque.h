// RingDeque<T>: a power-of-two ring buffer with deque semantics.
//
// The core's scheduling queues (ready lists, fetch queue) are bounded by
// configuration (ROB size, fetch-queue depth), but std::deque allocates
// and frees chunk nodes as elements stream through it. This ring is
// reserved once and never allocates in steady state; it grows (doubling,
// order-preserving) only if a caller under-reserved.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace samie {

template <typename T>
class RingDeque {
 public:
  RingDeque() : data_(kMinCapacity), mask_(kMinCapacity - 1) {}

  /// Ensures capacity for at least `n` elements without future growth.
  void reserve(std::size_t n) {
    if (n > data_.size()) regrow(std::bit_ceil(n));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] T& front() noexcept {
    assert(size_ > 0);
    return data_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(size_ > 0);
    return data_[head_];
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[(head_ + i) & mask_];
  }

  // By value: a self-aliased insert (q.push_back(q.front())) must not
  // read through a reference regrow() just invalidated.
  void push_back(T v) {
    if (size_ == data_.size()) regrow(data_.size() * 2);
    data_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }
  /// Appends a value-initialized element and returns it, so the caller
  /// fills it in place.
  T& emplace_back() {
    if (size_ == data_.size()) regrow(data_.size() * 2);
    T& slot = data_[(head_ + size_) & mask_];
    slot = T{};
    ++size_;
    return slot;
  }
  void push_front(T v) {
    if (size_ == data_.size()) regrow(data_.size() * 2);
    head_ = (head_ + data_.size() - 1) & mask_;
    data_[head_] = std::move(v);
    ++size_;
  }
  void pop_front() noexcept {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  [[nodiscard]] T& back() noexcept {
    assert(size_ > 0);
    return data_[(head_ + size_ - 1) & mask_];
  }
  [[nodiscard]] const T& back() const noexcept {
    assert(size_ > 0);
    return data_[(head_ + size_ - 1) & mask_];
  }
  void pop_back() noexcept {
    assert(size_ > 0);
    --size_;
  }

  /// Removes every element matching `pred`, preserving order.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const T& v = data_[(head_ + i) & mask_];
      if (!pred(v)) {
        data_[(head_ + kept) & mask_] = v;
        ++kept;
      }
    }
    size_ = kept;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void regrow(std::size_t new_cap) {
    std::vector<T> bigger(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = data_[(head_ + i) & mask_];
    }
    data_ = std::move(bigger);
    head_ = 0;
    mask_ = data_.size() - 1;
  }

  std::vector<T> data_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace samie
