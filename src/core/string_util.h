#pragma once

#include <string>
#include <string_view>

#include "core/result.h"

namespace bikegraph {

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// \brief Strict numeric parsing: the whole (trimmed) string must parse.
Result<int64_t> ParseInt(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// \brief Formats `value` with `decimals` digits after the point.
std::string FormatDouble(double value, int decimals);

/// \brief Formats an integer with thousands separators ("61,872"), matching
/// the paper's table style.
std::string FormatWithCommas(int64_t value);

}  // namespace bikegraph
