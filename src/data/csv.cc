#include "data/csv.h"

#include <fstream>
#include <sstream>
#include <vector>

namespace bikegraph::data {

Status ForEachCsvRecord(std::string_view text, const CsvRecordVisitor& visit) {
  std::string buffer;        // the current record's unescaped bytes
  std::vector<size_t> ends;  // where each of its fields ends in `buffer`
  std::vector<std::string_view> fields;
  size_t records = 0;  // records visited so far, the header included
  size_t width = 0;    // the header's field count
  bool in_quotes = false;
  bool field_started = false;
  auto end_field = [&] {
    ends.push_back(buffer.size());
    field_started = false;
  };
  auto end_record = [&]() -> Status {
    end_field();
    Status status = Status::OK();
    if (ends.size() > 1 || ends[0] > 0) {  // not one empty field
      if (records == 0) width = ends.size();
      if (ends.size() != width) {
        return Status::DataLoss("row " + std::to_string(records) + " has " +
                                std::to_string(ends.size()) +
                                " fields, header has " +
                                std::to_string(width));
      }
      fields.clear();
      size_t begin = 0;
      for (const size_t end : ends) {
        fields.emplace_back(buffer.data() + begin, end - begin);
        begin = end;
      }
      status = visit(records++, fields);
    }
    buffer.clear();
    ends.clear();
    return status;
  };
  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c != '"') {
        buffer.push_back(c);
      } else if (i + 1 < n && text[i + 1] == '"') {
        buffer.push_back('"');
        ++i;
      } else {
        in_quotes = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field_started) {
          buffer.push_back(c);  // quote mid-field: keep verbatim
        } else {
          in_quotes = true;
          field_started = true;
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;  // dropped outside quotes, CRLF or not
      case '\n':
        BIKEGRAPH_RETURN_NOT_OK(end_record());
        break;
      default:
        buffer.push_back(c);
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::DataLoss("unterminated quoted field at end of input");
  }
  if (field_started || !ends.empty()) {
    BIKEGRAPH_RETURN_NOT_OK(end_record());
  }
  if (records == 0) return Status::DataLoss("empty CSV document");
  return Status::OK();
}

Status ForEachCsvFileRecord(const std::string& path,
                            const CsvRecordVisitor& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ForEachCsvRecord(std::move(text).str(), visit);
}

void AppendCsvField(std::string* out, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (const char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace bikegraph::data
