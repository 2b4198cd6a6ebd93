#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>

namespace bikegraph {

/// \brief Signed-to-`size_t` container-index cast, debug-checked.
///
/// The graph layers address everything by signed ids (`int32_t` station
/// slots, `int64_t` GridIndex ids) because -1 is the universal "no such"
/// sentinel, while the standard containers index by `size_t`. Under the
/// tree-wide `-Wsign-conversion -Werror` floor every such subscript must
/// say what it means: `AsIndex(i)` asserts non-negativity in debug builds
/// and compiles to the bare cast in release — unlike a naked
/// `static_cast<size_t>`, a sentinel that leaks into an index trips an
/// assert instead of wrapping to 2^64-ish and scribbling.
template <typename T>
constexpr size_t AsIndex(T v) {
  static_assert(std::is_integral_v<T>, "AsIndex takes integers");
  if constexpr (std::is_signed_v<T>) {
    assert(v >= 0 && "negative value used as container index");
  }
  return static_cast<size_t>(v);
}

/// \brief Value-preserving narrowing cast, debug-checked.
///
/// For counters and wire fields that must shrink (size_t -> uint32_t,
/// int64 -> int32): asserts the round trip is exact (value and sign) in
/// debug builds, compiles to the bare cast in release.
template <typename To, typename From>
constexpr To CheckedNarrow(From v) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "CheckedNarrow takes integers");
  const To narrowed = static_cast<To>(v);
  assert(static_cast<From>(narrowed) == v &&
         ((narrowed < To{}) == (v < From{})) &&
         "narrowing conversion changed the value");
  return narrowed;
}

}  // namespace bikegraph
