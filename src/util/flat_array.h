#ifndef MOVD_UTIL_FLAT_ARRAY_H_
#define MOVD_UTIL_FLAT_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace movd {

/// A growable array of trivially copyable values in one block. The flat
/// OVR table (model/movd_model.h) keeps a whole overlay in a few of these,
/// each up to ~130 MB at paper scale, which std::vector handles badly:
///  - it grows by allocate-copy-free, so while it grows the old and the
///    new block are both resident;
///  - below malloc's mmap threshold (which glibc raises to 32 MB once a
///    block that large was freed) every outgrown block stays behind in a
///    malloc arena, resident, when the array moves on.
/// So a block of at least kMapBytes is mapped directly and grown with
/// mremap, which moves pages without copying them, and unmapping it
/// returns them at once. Smaller blocks use malloc/realloc. Only the
/// operations the table needs: append, index, iterate.
template <typename T>
class FlatArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatArray moves its values with realloc and memcpy");

 public:
  FlatArray() = default;
  FlatArray(std::initializer_list<T> values) {
    append(values.begin(), values.size());
  }
  FlatArray(const FlatArray& other) { append(other.data_, other.size_); }
  FlatArray& operator=(const FlatArray& other) {
    if (this != &other) {
      clear();
      append(other.data_, other.size_);
    }
    return *this;
  }
  FlatArray(FlatArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  FlatArray& operator=(FlatArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~FlatArray() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& operator[](size_t i) { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// Takes `value` by copy, so it may name an element of this array.
  void push_back(T value) {
    if (size_ == capacity_) Reallocate(std::max<size_t>(8, 2 * capacity_));
    data_[size_++] = value;
  }

  /// Appends `count` values from `first`, which must not point into this
  /// array.
  void append(const T* first, size_t count) {
    if (count == 0) return;
    if (size_ + count > capacity_) {
      Reallocate(std::max(size_ + count, 2 * capacity_));
    }
    std::memcpy(data_ + size_, first, count * sizeof(T));
    size_ += count;
  }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Reallocate(capacity);
  }

  /// Drops the values; the capacity is kept for reuse.
  void clear() { size_ = 0; }

 private:
#if defined(__linux__)
  static constexpr size_t kMapBytes = size_t{1} << 20;

  static size_t PageRound(size_t bytes) {
    constexpr size_t kPage = 4096;  // mmap rounds to the page size anyway
    return (bytes + kPage - 1) / kPage * kPage;
  }
  bool mapped() const { return capacity_ * sizeof(T) >= kMapBytes; }

  // Grows the block to hold at least `capacity` values.
  void Reallocate(size_t capacity) {
    const size_t bytes = capacity * sizeof(T);
    if (bytes < kMapBytes) {
      Resize(std::realloc(data_, bytes), capacity);
      return;
    }
    const size_t map_bytes = PageRound(bytes);
    void* block;
    if (mapped()) {
      block = mremap(data_, PageRound(capacity_ * sizeof(T)), map_bytes,
                     MREMAP_MAYMOVE);
    } else {
      block = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block != MAP_FAILED) {
        if (size_ > 0) std::memcpy(block, data_, size_ * sizeof(T));
        std::free(data_);
      }
    }
    if (block == MAP_FAILED) throw std::bad_alloc();
    Resize(block, map_bytes / sizeof(T));
  }

  void Release() {
    if (mapped()) {
      munmap(data_, PageRound(capacity_ * sizeof(T)));
    } else {
      std::free(data_);
    }
  }
#else
  void Reallocate(size_t capacity) {
    Resize(std::realloc(data_, capacity * sizeof(T)), capacity);
  }
  void Release() { std::free(data_); }
#endif

  void Resize(void* block, size_t capacity) {
    if (block == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(block);
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace movd

#endif  // MOVD_UTIL_FLAT_ARRAY_H_
