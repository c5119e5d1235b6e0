// Unit tests for the table/CSV formatter and error plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "util/error.h"
#include "util/table.h"

namespace nanocache {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"33", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| 33 "), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, PadsRaggedRows) {
  TextTable t;
  t.set_header({"x", "y", "z"});
  t.add_row({"only-one"});
  const std::string s = t.to_string();
  // Every data line must have the same number of separators as the header.
  const auto count_pipes = [](const std::string& line) {
    return std::count(line.begin(), line.end(), '|');
  };
  std::istringstream is(s);
  std::string line;
  long pipes = -1;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != '|') continue;
    if (pipes == -1) {
      pipes = count_pipes(line);
    } else {
      EXPECT_EQ(count_pipes(line), pipes);
    }
  }
  EXPECT_EQ(pipes, 4);
}

TEST(TextTable, EmptyTableRendersTitleOnly) {
  TextTable t("empty");
  EXPECT_EQ(t.to_string(), "== empty ==\n");
}

TEST(TextTable, CsvEscapesSpecialCells) {
  TextTable t;
  t.set_header({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, CsvPlainCellsUnquoted) {
  TextTable t;
  t.add_row({"plain", "1.5"});
  EXPECT_EQ(t.to_csv(), "plain,1.5\n");
}

TEST(FmtFixed, RespectsDigits) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_fixed(-1.005, 1), "-1.0");
}

TEST(FmtBytes, HumanReadable) {
  EXPECT_EQ(fmt_bytes(512), "512B");
  EXPECT_EQ(fmt_bytes(4096), "4KB");
  EXPECT_EQ(fmt_bytes(16 * 1024), "16KB");
  EXPECT_EQ(fmt_bytes(1024 * 1024), "1MB");
  EXPECT_EQ(fmt_bytes(3 * 1024 * 1024), "3MB");
}

TEST(FmtBytes, NonRoundFallsBack) {
  EXPECT_EQ(fmt_bytes(1536), "1536B");
}

TEST(Error, RequireMacroThrowsCategoryAndMessageOnly) {
  // The text reaches the wire: no condition, file or line in it.
  try {
    NC_REQUIRE_IO(1 == 2, "the message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
    EXPECT_EQ(std::string(e.what()), "[io] the message");
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(NC_REQUIRE(true, "never"));
}

}  // namespace
}  // namespace nanocache
