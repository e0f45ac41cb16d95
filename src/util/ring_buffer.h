// Power-of-two ring buffer: the FIFO order of the data plane. Queue
// disciplines keep rings of sim::PacketStore handles (the packets live
// in the store), and the event kernel's delay lanes keep rings of
// pending deliveries.
//
// std::deque allocates fixed-size chunks and follows a chunk map on
// every access; under the enqueue/dequeue churn of a packet queue the
// head and tail permanently straddle a chunk boundary and every
// operation pays the double indirection (plus chunk allocation and
// deallocation as the boundary advances). This ring keeps elements in
// one contiguous power-of-two allocation indexed by bit-masking, grows
// by doubling (amortised O(1), only when the buffer is actually full),
// and never releases memory until destruction — a queue that reached
// depth N once will cycle through the same N slots forever after.
//
// Elements need not be default-constructible; storage is raw and
// elements are constructed/destroyed in place, so move-only types work.
// Indexing (`front`, `back`, `operator[]`) is in logical FIFO order:
// index 0 is the oldest element. Accessing an element that does not
// exist is undefined, as for the standard containers.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dtdctcp::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  RingBuffer(RingBuffer&& other) noexcept
      : data_(other.data_), cap_(other.cap_), head_(other.head_),
        size_(other.size_) {
    other.data_ = nullptr;
    other.cap_ = 0;
    other.head_ = 0;
    other.size_ = 0;
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      destroy_all();
      data_ = other.data_;
      cap_ = other.cap_;
      head_ = other.head_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.cap_ = 0;
      other.head_ = 0;
      other.size_ = 0;
    }
    return *this;
  }
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  ~RingBuffer() { destroy_all(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Current allocation, always zero or a power of two.
  std::size_t capacity() const { return cap_; }

  /// Ensures capacity for at least `n` elements without further growth.
  void reserve(std::size_t n) {
    if (n > cap_) grow(pow2_at_least(n));
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ == 0 ? kMinCapacity : cap_ << 1);
    T* p = ::new (static_cast<void*>(data_ + mask(head_ + size_)))
        T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  T& front() { return data_[head_]; }
  const T& front() const { return data_[head_]; }
  T& back() { return data_[mask(head_ + size_ - 1)]; }
  const T& back() const { return data_[mask(head_ + size_ - 1)]; }

  /// Logical FIFO indexing: [0] is the oldest (next to pop).
  T& operator[](std::size_t i) { return data_[mask(head_ + i)]; }
  const T& operator[](std::size_t i) const { return data_[mask(head_ + i)]; }

  void pop_front() {
    data_[head_].~T();
    head_ = mask(head_ + 1);
    --size_;
  }

  void clear() {
    while (size_ != 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  static std::size_t pow2_at_least(std::size_t n) {
    std::size_t c = kMinCapacity;
    while (c < n) c <<= 1;
    return c;
  }

  std::size_t mask(std::size_t i) const { return i & (cap_ - 1); }

  void grow(std::size_t new_cap) {
    T* nd = static_cast<T*>(
        ::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      T& src = data_[mask(head_ + i)];
      ::new (static_cast<void*>(nd + i)) T(std::move(src));
      src.~T();
    }
    release_storage();
    data_ = nd;
    cap_ = new_cap;
    head_ = 0;
  }

  void destroy_all() {
    for (std::size_t i = 0; i < size_; ++i) data_[mask(head_ + i)].~T();
    release_storage();
    data_ = nullptr;
    cap_ = 0;
    head_ = 0;
    size_ = 0;
  }

  void release_storage() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{alignof(T)});
    }
  }

  T* data_ = nullptr;
  std::size_t cap_ = 0;   ///< power of two, or 0 before first growth
  std::size_t head_ = 0;  ///< physical index of the front element
  std::size_t size_ = 0;
};

}  // namespace dtdctcp::util
