#include "data/csv.h"

#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

#include <gtest/gtest.h>

namespace bikegraph::data {
namespace {

using Records = std::vector<std::vector<std::string>>;

/// Every record the tokenizer visits, the header first, copied out of the
/// views it hands over.
Result<Records> Tokenize(std::string_view text) {
  Records records;
  const Status status = ForEachCsvRecord(
      text, [&](size_t record, std::span<const std::string_view> fields) {
        EXPECT_EQ(record, records.size());
        records.emplace_back(fields.begin(), fields.end());
        return Status::OK();
      });
  if (!status.ok()) return status;
  return records;
}

TEST(CsvTokenizerTest, BasicParse) {
  auto records = Tokenize("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0], (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2][2], "6");
}

TEST(CsvTokenizerTest, QuotedFieldsWithCommas) {
  auto records = Tokenize("name,pos\n\"Dun Laoghaire, Pier\",x\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[1][0], "Dun Laoghaire, Pier");
}

TEST(CsvTokenizerTest, EscapedQuotes) {
  auto records = Tokenize("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[1][0], "say \"hi\"");
}

TEST(CsvTokenizerTest, QuotedNewlines) {
  auto records = Tokenize("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1][0], "line1\nline2");
}

TEST(CsvTokenizerTest, CrLfTolerated) {
  auto records = Tokenize("a,b\r\n1,2\r\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[1][1], "2");
}

TEST(CsvTokenizerTest, MissingTrailingNewline) {
  auto records = Tokenize("a,b\n1,2");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1][1], "2");
}

TEST(CsvTokenizerTest, EmptyFieldsPreserved) {
  auto records = Tokenize("a,b,c\n,,\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[1], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTokenizerTest, RowWidthMismatchIsError) {
  auto records = Tokenize("a,b\n1,2,3\n");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(records.status().message(), "row 1 has 3 fields, header has 2");
}

TEST(CsvTokenizerTest, UnterminatedQuoteIsError) {
  auto records = Tokenize("a\n\"oops\n");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(records.status().message(),
            "unterminated quoted field at end of input");
}

TEST(CsvTokenizerTest, EmptyDocumentIsError) {
  auto records = Tokenize("");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(records.status().message(), "empty CSV document");
}

TEST(CsvTokenizerTest, MissingFileIsIOError) {
  const Status status = ForEachCsvFileRecord(
      "/no/such/file.csv",
      [](size_t, std::span<const std::string_view>) { return Status::OK(); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(status.message(), "cannot open: /no/such/file.csv");
}

TEST(CsvTokenizerTest, HeaderColumnsInOrder) {
  auto records = Tokenize("id,lat,lon\n1,2,3\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0], (std::vector<std::string>{"id", "lat", "lon"}));
}

TEST(CsvTokenizerTest, AppendCsvFieldRoundTrip) {
  const Records rows = {{"name", "value"},
                        {"plain", "1"},
                        {"with,comma", "2"},
                        {"with\"quote", "3"},
                        {"with\nnewline", "4"},
                        {"with\rreturn", "5"},
                        {"", "6"}};
  std::string text;
  for (const auto& row : rows) {
    AppendCsvField(&text, row[0]);
    text.push_back(',');
    AppendCsvField(&text, row[1]);
    text.push_back('\n');
  }
  EXPECT_EQ(text,
            "name,value\nplain,1\n\"with,comma\",2\n\"with\"\"quote\",3\n"
            "\"with\nnewline\",4\n\"with\rreturn\",5\n,6\n");
  auto records = Tokenize(text);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, rows);
}

TEST(CsvTokenizerTest, MidFieldQuoteKeptAsIs) {
  auto records = Tokenize("a,b\nsay \"hi\",x\n\"q\"tail,y\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1][0], "say \"hi\"");
  EXPECT_EQ((*records)[2][0], "qtail");
}

TEST(CsvTokenizerTest, CarriageReturnOutsideQuotesDroppedAnywhere) {
  auto records = Tokenize("a\r,b\n1\r2,\"3\r\"\r\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*records)[1], (std::vector<std::string>{"12", "3\r"}));
}

TEST(CsvTokenizerTest, RecordsOfOneEmptyFieldAreSkipped) {
  // Blank lines, a lone CR and an empty quoted field are each one empty
  // field, so they are skipped and not counted in the row numbers.
  auto records = Tokenize("\na\n\n1\r\n\"\"\n2\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (Records{{"a"}, {"1"}, {"2"}}));
  auto mismatch = Tokenize("a,b\n\n1,2\n\r\n3\n");
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().message(), "row 2 has 1 fields, header has 2");
  auto blank = Tokenize("\n\r\n\"\"");
  ASSERT_FALSE(blank.ok());
  EXPECT_EQ(blank.status().message(), "empty CSV document");
}

TEST(CsvTokenizerTest, VisitorErrorStopsTheScan) {
  size_t visited = 0;
  const Status status = ForEachCsvRecord(
      "a\n1\n2\n3\n",
      [&](size_t record, std::span<const std::string_view>) {
        ++visited;
        return record == 2 ? Status::InvalidArgument("stop") : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "stop");
  EXPECT_EQ(visited, 3u);
}

}  // namespace
}  // namespace bikegraph::data
