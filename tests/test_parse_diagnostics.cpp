// Positioned ingestion diagnostics: every malformed input class produces a
// ParseError carrying source:line:column, and benign formatting variation
// (CRLF, trailing blank lines, comments) parses cleanly.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/csv.h"
#include "util/parse_error.h"
#include "workload/trace_import.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

ParseError capture_wl(const std::string& text) {
  std::istringstream in(text);
  try {
    read_workload(in, "test.wl");
  } catch (const ParseError& error) {
    return error;
  }
  ADD_FAILURE() << "expected ParseError for:\n" << text;
  return ParseError("none", 0, 0, "no error");
}

ParseError capture_csv(const std::string& text) {
  std::istringstream in(text);
  try {
    import_trace_csv(in, "test.csv");
  } catch (const ParseError& error) {
    return error;
  }
  ADD_FAILURE() << "expected ParseError for:\n" << text;
  return ParseError("none", 0, 0, "no error");
}

// A minimal valid workload; tests below mutate one line at a time.
const char* kValidWl =
    "dagsched-workload 1\n"
    "job 0\n"
    "profit step 2 10\n"
    "nodes 2\n"
    "1.5 2.5\n"
    "edges 1\n"
    "0 1\n"
    "end\n";

TEST(WorkloadDiagnostics, ValidBaselineParses) {
  std::istringstream in(kValidWl);
  const JobSet jobs = read_workload(in, "test.wl");
  EXPECT_EQ(jobs.size(), 1u);
}

struct WlCase {
  const char* text;
  std::size_t line;
  std::size_t column;
  const char* substring;
};

TEST(WorkloadDiagnostics, PositionedErrors) {
  const WlCase cases[] = {
      {"", 1, 1, "empty input"},
      {"not-a-workload 1\njob 0\n", 1, 1, "bad header"},
      {"dagsched-workload 9\n", 1, 19, "unsupported version"},
      {"dagsched-workload 1\nblob 0\n", 2, 1, "expected 'job'"},
      {"dagsched-workload 1\njob -3\n", 2, 5, "release time must be >= 0"},
      {"dagsched-workload 1\njob nan\n", 2, 5, "must be finite"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10 junk\n", 3, 18,
       "trailing junk"},
      {"dagsched-workload 1\njob 0\nprofit blob 2 10\n", 3, 8,
       "unknown profit kind"},
      {"dagsched-workload 1\njob 0\nprofit step -2 10\n", 3, 13,
       "peak profit must be positive"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 0\n", 4, 7,
       "node count must be >= 1"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1.5 -2.5\n",
       5, 5, "node work must be positive"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1.5 nan\n",
       5, 5, "must be finite"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 3\n1.5 2.5\n",
       5, 8, "missing node work"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1.5 2.5\n"
       "edges 1\n0 7\nend\n",
       7, 3, "out of range"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1.5 2.5\n"
       "edges 1\n1 1\nend\n",
       7, 1, "self-edge"},
      {"dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1.5 2.5\n"
       "edges 0\nfin\n",
       7, 1, "expected 'end'"},
  };
  for (const WlCase& c : cases) {
    const ParseError error = capture_wl(c.text);
    EXPECT_EQ(error.source(), "test.wl") << c.text;
    EXPECT_EQ(error.line(), c.line) << c.text;
    EXPECT_EQ(error.column(), c.column) << c.text;
    EXPECT_NE(std::string(error.what()).find(c.substring), std::string::npos)
        << "diagnostic was: " << error.what();
    // GCC-style prefix so editors can jump to the position.
    const std::string expected_prefix = "test.wl:" + std::to_string(c.line) +
                                        ":" + std::to_string(c.column) + ": ";
    EXPECT_EQ(std::string(error.what()).rfind(expected_prefix, 0), 0u)
        << error.what();
  }
}

TEST(WorkloadDiagnostics, CrlfAndTrailingBlanksParse) {
  std::string crlf(kValidWl);
  std::string with_crlf;
  for (const char c : crlf) {
    if (c == '\n') with_crlf += "\r\n";
    else with_crlf += c;
  }
  with_crlf += "\r\n\r\n";  // trailing blank lines
  std::istringstream in(with_crlf);
  const JobSet jobs = read_workload(in, "test.wl");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].work(), 4.0);
}

// The number grammar is exactly std::stod's (and std::stoull's over digit
// strings for indices): the table pins the spellings where a faster
// scanner would diverge from it.
enum class Field { kNodeWork, kRelease, kEdgeTarget };

struct GrammarCase {
  Field field;
  const char* token;
  bool accepted;
  double value;            // accepted node work or release
  std::size_t column;      // rejected: column of the diagnostic
  const char* substring;   // rejected: part of the message
};

std::string grammar_input(Field field, const std::string& token) {
  const std::string release = field == Field::kRelease ? token : "0";
  const std::string work = field == Field::kNodeWork ? token : "2";
  const std::string target = field == Field::kEdgeTarget ? token : "1";
  return "dagsched-workload 1\njob " + release +
         "\nprofit step 2 10\nnodes 2\n1 " + work + "\nedges 1\n0 " + target +
         "\nend\n";
}

TEST(WorkloadDiagnostics, NumberGrammarMatchesStod) {
  const GrammarCase cases[] = {
      {Field::kNodeWork, "+1.5", true, 1.5, 0, ""},
      {Field::kNodeWork, "0x1p3", true, 8.0, 0, ""},
      {Field::kNodeWork, "1e-310", false, 0, 3, "bad node work '1e-310'"},
      {Field::kNodeWork, "1e400", false, 0, 3, "bad node work '1e400'"},
      {Field::kNodeWork, "inf", false, 0, 3,
       "node work must be finite, got 'inf'"},
      {Field::kNodeWork, "infinity", false, 0, 3,
       "node work must be finite, got 'infinity'"},
      {Field::kNodeWork, ".5", true, 0.5, 0, ""},
      {Field::kNodeWork, "1.", true, 1.0, 0, ""},
      {Field::kNodeWork, "00012", true, 12.0, 0, ""},
      {Field::kNodeWork, "1e+", false, 0, 3,
       "trailing junk in node work '1e+'"},
      {Field::kRelease, "-0", true, -0.0, 0, ""},
      {Field::kRelease, "1e-310", false, 0, 5, "bad release time '1e-310'"},
      {Field::kEdgeTarget, "+3", false, 0, 3,
       "bad edge target '+3' (expected a non-negative integer)"},
      {Field::kEdgeTarget, "3x", false, 0, 3,
       "bad edge target '3x' (expected a non-negative integer)"},
      {Field::kEdgeTarget, "99999999999999999999", false, 0, 3,
       "edge target '99999999999999999999' out of range"},
  };
  for (const GrammarCase& c : cases) {
    const std::string text = grammar_input(c.field, c.token);
    if (!c.accepted) {
      const ParseError error = capture_wl(text);
      const std::size_t line = c.field == Field::kRelease    ? 2
                               : c.field == Field::kNodeWork ? 5
                                                             : 7;
      EXPECT_EQ(error.line(), line) << c.token;
      EXPECT_EQ(error.column(), c.column) << c.token << " -> " << error.what();
      EXPECT_NE(std::string(error.what()).find(c.substring),
                std::string::npos)
          << "diagnostic was: " << error.what();
      continue;
    }
    std::istringstream in(text);
    const JobSet jobs = read_workload(in, "test.wl");
    ASSERT_EQ(jobs.size(), 1u) << c.token;
    const double parsed = c.field == Field::kRelease
                              ? jobs[0].release()
                              : jobs[0].dag().node_work(1);
    EXPECT_EQ(parsed, c.value) << c.token;
    EXPECT_EQ(std::signbit(parsed), std::signbit(c.value)) << c.token;
  }
}

TEST(WorkloadDiagnostics, IncreasingPiecewiseProfitIsPositioned) {
  const ParseError error = capture_wl(
      "dagsched-workload 1\njob 0\nprofit piecewise 2 4 1 8 3\n");
  EXPECT_EQ(error.line(), 3u);
  EXPECT_EQ(error.column(), 26u);
  EXPECT_NE(std::string(error.what())
                .find("piecewise level profits must not increase"),
            std::string::npos)
      << error.what();
}

struct CsvCase {
  const char* row;  // appended after a valid header
  std::size_t column;
  const char* substring;
};

TEST(TraceDiagnostics, PositionedErrors) {
  const std::string header = "release,work,span,deadline,profit\n";
  const CsvCase cases[] = {
      {"1,2", 1, "expected 5 fields"},
      {"x,10,2,20,5", 1, "bad release"},
      {"-1,10,2,20,5", 1, "negative release"},
      {"0,nan,2,20,5", 3, "work must be finite"},
      {"0,inf,2,20,5", 3, "work must be finite"},
      {"0,-10,2,20,5", 3, "non-positive work"},
      {"0,10,-2,20,5", 6, "non-positive span"},
      {"0,10,20,20,5", 6, "exceeds work"},
      {"0,10,2,0,5", 8, "non-positive deadline"},
      {"0,10,2,20,-5", 11, "non-positive profit"},
      {"0,10,2,20,5x", 11, "trailing junk"},
  };
  for (const CsvCase& c : cases) {
    const ParseError error = capture_csv(header + c.row + "\n");
    EXPECT_EQ(error.source(), "test.csv") << c.row;
    EXPECT_EQ(error.line(), 2u) << c.row;
    EXPECT_EQ(error.column(), c.column) << c.row << " -> " << error.what();
    EXPECT_NE(std::string(error.what()).find(c.substring), std::string::npos)
        << "diagnostic was: " << error.what();
  }
}

TEST(TraceDiagnostics, BadHeaderIsPositioned) {
  const ParseError error = capture_csv("release,work,span,due,profit\n");
  EXPECT_EQ(error.line(), 1u);
  EXPECT_EQ(error.column(), 19u);  // start of the offending column name
  EXPECT_NE(std::string(error.what()).find("bad header"), std::string::npos);
}

TEST(TraceDiagnostics, CrlfAndTrailingBlanksParse) {
  std::istringstream in(
      "release,work,span,deadline,profit\r\n"
      "0,10,2,20,5\r\n"
      "1, 8 ,2,20,4\r\n"
      "\r\n"
      "\r\n");
  const JobSet jobs = import_trace_csv(in, "test.csv");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[1].work(), 8.0);
}

TEST(CsvSplit, TracksColumnsAndQuotes) {
  const auto cells = split_csv_line("a,\"b,c\",d\r");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].text, "a");
  EXPECT_EQ(cells[0].column, 1u);
  EXPECT_EQ(cells[1].text, "b,c");
  EXPECT_EQ(cells[1].column, 3u);
  EXPECT_EQ(cells[2].text, "d");
  EXPECT_EQ(cells[2].column, 9u);
}

}  // namespace
}  // namespace dagsched
