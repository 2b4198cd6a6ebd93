#include "core/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace bikegraph {

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

Result<int64_t> ParseInt(std::string_view text) {
  const std::string_view t = Trim(text);
  if (t.empty()) return Status::DataLoss("empty integer field");
  // Same grammar as strtoll in base 10: an optional sign, then digits.
  // from_chars takes no '+', so skip it here — but only before a digit,
  // or "+-5" would parse.
  const char* begin = t.data();
  const char* end = t.data() + t.size();
  if (*begin == '+' && t.size() > 1 && t[1] != '-') ++begin;
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer overflow: " + std::string(t));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::DataLoss("invalid integer: '" + std::string(t) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  std::string t(Trim(text));
  if (t.empty()) return Status::DataLoss("empty numeric field");
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(t.c_str(), &end);
  if (errno == ERANGE) return Status::OutOfRange("double overflow: " + t);
  if (end != t.c_str() + t.size()) {
    return Status::DataLoss("invalid number: '" + t + "'");
  }
  return value;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatWithCommas(int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (value < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

}  // namespace bikegraph
