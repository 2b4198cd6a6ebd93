#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "core/status.h"

namespace bikegraph::data {

/// \brief Receives one CSV record: `record` 0 is the header, data records
/// count from 1. The views are valid only during the call. A non-OK
/// return stops the tokenizer, which returns that status.
using CsvRecordVisitor = std::function<Status(
    size_t record, std::span<const std::string_view> fields)>;

/// \brief RFC-4180-style CSV tokenizer: the ingestion path for the Moby
/// export tables (Rental, Location) and any dataset in the same schema.
///
/// Rules: a field that opens with `"` is quoted and may hold commas,
/// newlines and doubled quotes (`""` → `"`); a quote later in an unquoted
/// field is kept as is; `\r` outside quotes is dropped wherever it
/// appears; a record that is one empty field (a blank line, a trailing
/// newline) is skipped. Fields are unescaped into one buffer the
/// tokenizer reuses for every record, so no per-field string is built.
///
/// Errors (kDataLoss): "row N has X fields, header has Y" for a data
/// record whose width differs from the header's, "unterminated quoted
/// field at end of input", and "empty CSV document". Records before the
/// fault have already been visited.
[[nodiscard]] Status ForEachCsvRecord(std::string_view text,
                                      const CsvRecordVisitor& visit);

/// \brief Reads the file at `path` whole and tokenizes it as
/// ForEachCsvRecord does; IOError "cannot open: <path>" when it cannot be
/// opened.
[[nodiscard]] Status ForEachCsvFileRecord(const std::string& path,
                                          const CsvRecordVisitor& visit);

/// \brief Appends `field` to `out` in the form ForEachCsvRecord reads
/// back: as is, or, when it holds a comma, quote, `\r` or `\n`, quoted
/// with its quotes doubled.
void AppendCsvField(std::string* out, std::string_view field);

}  // namespace bikegraph::data
