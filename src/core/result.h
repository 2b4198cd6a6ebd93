#pragma once

#include <cassert>
#include <optional>
#include <utility>

#include "core/status.h"

namespace bikegraph {

/// \brief A value-or-error type in the Arrow idiom.
///
/// A `Result<T>` holds either a `T` (status is OK) or a non-OK `Status`.
/// Accessing the value of an errored result aborts in debug builds and is
/// undefined otherwise; callers must check `ok()` first or use
/// `ValueOrDie()` in contexts where failure is a programming error.
///
/// \code
///   Result<Dataset> r = Dataset::ReadCsv(locations, rentals);
///   if (!r.ok()) return r.status();
///   Dataset ds = std::move(r).ValueOrDie();
/// \endcode
///
/// Like `Status`, the class is `[[nodiscard]]`: a `Result` returned by
/// value must be examined — discarding one silently discards the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs an errored result. `status` must be non-OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT implicit
    assert(!status_.ok() && "Result constructed from OK status without value");
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT implicit

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the held value; requires `ok()`.
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Alias for ValueOrDie for terser call sites.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }

  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value if OK, otherwise `fallback`.
  T ValueOr(T fallback) const& { return ok() ? *value_ : std::move(fallback); }
  T ValueOr(T fallback) && {
    return ok() ? std::move(*value_) : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Assigns the value of a `Result` expression to `lhs`, or propagates the
/// error. `lhs` may include a declaration, e.g.
/// `BIKEGRAPH_ASSIGN_OR_RETURN(auto ds, Dataset::ReadCsv(l, r));`
#define BIKEGRAPH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).ValueOrDie()

#define BIKEGRAPH_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define BIKEGRAPH_ASSIGN_OR_RETURN_NAME(a, b) \
  BIKEGRAPH_ASSIGN_OR_RETURN_CONCAT(a, b)

#define BIKEGRAPH_ASSIGN_OR_RETURN(lhs, expr)                               \
  BIKEGRAPH_ASSIGN_OR_RETURN_IMPL(                                          \
      BIKEGRAPH_ASSIGN_OR_RETURN_NAME(_result_tmp_, __LINE__), lhs, (expr))

}  // namespace bikegraph
