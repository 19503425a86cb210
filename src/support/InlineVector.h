//===- support/InlineVector.h - Vector with inline storage -------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector of trivially copyable elements that keeps its first N
/// elements inside the object and moves to the heap only past them. The
/// numeric core's small per-bound lists (bound forms, their resolved
/// slots) are copied far more often than they grow, so keeping them
/// inline turns those copies into one memcpy with no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_INLINEVECTOR_H
#define CSDF_SUPPORT_INLINEVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>

namespace csdf {

template <typename T, unsigned N> class InlineVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "elements are moved with memcpy and never destroyed");
  static_assert(N > 0, "an inline vector needs inline room");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  /// Elements held without touching the heap.
  static constexpr unsigned InlineCapacity = N;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> Init) {
    for (const T &V : Init)
      push_back(V);
  }
  InlineVector(const InlineVector &O) { copyFrom(O); }
  InlineVector(InlineVector &&O) noexcept { stealFrom(O); }
  InlineVector &operator=(const InlineVector &O) {
    if (this != &O) {
      Size = 0;
      copyFrom(O);
    }
    return *this;
  }
  InlineVector &operator=(InlineVector &&O) noexcept {
    if (this != &O) {
      freeHeap();
      stealFrom(O);
    }
    return *this;
  }
  ~InlineVector() { freeHeap(); }

  std::size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  /// True while the elements live inside the object.
  bool isInline() const { return Cap == N; }

  T *data() { return isInline() ? inlineData() : Heap; }
  const T *data() const { return isInline() ? inlineData() : Heap; }
  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  const T &operator[](std::size_t I) const {
    assert(I < Size && "index out of range");
    return data()[I];
  }
  const T &front() const { return (*this)[0]; }

  void push_back(const T &V) {
    if (Size == Cap) {
      T Copy = V; // V may live in the storage grow() frees.
      grow(Size + 1);
      ::new (data() + Size) T(Copy);
    } else {
      ::new (data() + Size) T(V);
    }
    ++Size;
  }

  /// Inserts \p V before \p Pos; returns the position of the new element.
  iterator insert(const_iterator Pos, const T &V) {
    std::size_t I = static_cast<std::size_t>(Pos - begin());
    assert(I <= Size && "insert position out of range");
    T Copy = V;
    if (Size == Cap)
      grow(Size + 1);
    T *D = data();
    std::memmove(static_cast<void *>(D + I + 1), D + I,
                 (Size - I) * sizeof(T));
    ::new (D + I) T(Copy);
    ++Size;
    return D + I;
  }

  bool operator==(const InlineVector &O) const {
    return Size == O.Size && std::equal(begin(), end(), O.begin());
  }

private:
  T *inlineData() { return std::launder(reinterpret_cast<T *>(Buf)); }
  const T *inlineData() const {
    return std::launder(reinterpret_cast<const T *>(Buf));
  }

  void freeHeap() {
    if (!isInline())
      ::operator delete(Heap);
    Cap = N;
  }

  /// Moves the elements to a heap block of at least \p Want elements.
  void grow(std::size_t Want) {
    std::size_t NewCap = std::max<std::size_t>(Want, std::size_t(Cap) * 2);
    T *Fresh = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    std::memcpy(static_cast<void *>(Fresh), data(), Size * sizeof(T));
    freeHeap();
    Heap = Fresh;
    Cap = static_cast<std::uint32_t>(NewCap);
  }

  /// Copies \p O's elements into this (empty) vector; allocates only
  /// when they do not fit inline.
  void copyFrom(const InlineVector &O) {
    if (O.Size > Cap)
      grow(O.Size);
    std::memcpy(static_cast<void *>(data()), O.data(), O.Size * sizeof(T));
    Size = O.Size;
  }

  /// Takes \p O's elements (its heap block, when it has one) and leaves
  /// \p O empty and inline. This vector must hold no heap block.
  void stealFrom(InlineVector &O) {
    if (O.isInline()) {
      std::memcpy(static_cast<void *>(inlineData()), O.inlineData(),
                  O.Size * sizeof(T));
    } else {
      Heap = O.Heap;
      Cap = O.Cap;
      O.Cap = N;
    }
    Size = O.Size;
    O.Size = 0;
  }

  union {
    alignas(T) unsigned char Buf[N * sizeof(T)];
    T *Heap;
  };
  std::uint32_t Size = 0;
  std::uint32_t Cap = N;
};

} // namespace csdf

#endif // CSDF_SUPPORT_INLINEVECTOR_H
