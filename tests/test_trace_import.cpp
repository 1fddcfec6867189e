// CSV trace importer: parsing, DAG synthesis fidelity, error reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "dag/generators.h"
#include "workload/trace_import.h"

namespace dagsched {
namespace {

JobSet parse(const std::string& text) {
  std::istringstream in(text);
  return import_trace_csv(in);
}

TEST(TraceImport, ParsesRowsAndSortsByRelease) {
  const JobSet jobs = parse(
      "release,work,span,deadline,profit\n"
      "5.0, 20, 4, 10, 2.5\n"
      "# a comment row\n"
      "1.0, 6, 6, 8, 1\n"
      "\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].release(), 1.0);
  EXPECT_DOUBLE_EQ(jobs[1].release(), 5.0);
  EXPECT_DOUBLE_EQ(jobs[1].relative_deadline(), 10.0);
  EXPECT_DOUBLE_EQ(jobs[1].peak_profit(), 2.5);
}

TEST(TraceImport, SynthesizedDagMatchesTotals) {
  const JobSet jobs = parse(
      "release,work,span,deadline,profit\n"
      "0, 20, 4, 10, 1\n"
      "0, 7.5, 7.5, 10, 1\n"   // pure chain (W == L)
      "0, 5.3, 1.7, 10, 1\n");  // fractional sizes
  ASSERT_EQ(jobs.size(), 3u);
  const double works[] = {20.0, 7.5, 5.3};
  const double spans[] = {4.0, 7.5, 1.7};
  // Chain of ceil(L) nodes of L/ceil(L) work, the rest in nodes no larger.
  const std::size_t nodes[] = {4 + 16, 8, 2 + 5};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_NEAR(jobs[i].work(), works[i], 1e-9);
    EXPECT_NEAR(jobs[i].span(), spans[i], 1e-9);
    EXPECT_EQ(jobs[i].dag().num_nodes(), nodes[i]);
  }
}

TEST(TraceImport, ErrorsCarryLineNumbers) {
  const char* bad[] = {
      "",                                            // empty
      "wrong,header\n",                              // header
      "release,work,span,deadline,profit\n1,2\n",    // arity
      "release,work,span,deadline,profit\nx,2,1,3,1\n",  // non-numeric
      "release,work,span,deadline,profit\n0,2,3,3,1\n",  // span > work
      "release,work,span,deadline,profit\n0,2,1,0,1\n",  // deadline <= 0
      "release,work,span,deadline,profit\n-1,2,1,3,1\n", // release < 0
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(import_trace_csv(in), std::runtime_error) << text;
  }
}

TEST(TraceImport, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/no/such/trace.csv"), std::runtime_error);
}

TEST(TraceExport, RoundTripPreservesParameters) {
  const JobSet original = parse(
      "release,work,span,deadline,profit\n"
      "0, 20, 4, 10, 2.5\n"
      "1.5, 8, 8, 12, 1\n");
  std::stringstream buffer;
  export_trace_csv(buffer, original);
  const JobSet again = import_trace_csv(buffer);
  ASSERT_EQ(again.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(again[i].release(), original[i].release(), 1e-12) << i;
    EXPECT_NEAR(again[i].work(), original[i].work(), 1e-9) << i;
    EXPECT_NEAR(again[i].span(), original[i].span(), 1e-9) << i;
    EXPECT_NEAR(again[i].relative_deadline(),
                original[i].relative_deadline(), 1e-12)
        << i;
    EXPECT_NEAR(again[i].peak_profit(), original[i].peak_profit(), 1e-12)
        << i;
  }
}

TEST(TraceExport, NonStepProfitsExportPlateauAndPeak) {
  JobSet jobs;
  jobs.add(Job(std::make_shared<const Dag>(make_parallel_block(4, 1.0)), 2.0,
               ProfitFn::plateau_linear(5.0, 7.0, 20.0)));
  jobs.finalize();
  std::stringstream buffer;
  export_trace_csv(buffer, jobs);
  const JobSet again = import_trace_csv(buffer);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_DOUBLE_EQ(again[0].relative_deadline(), 7.0);  // plateau end
  EXPECT_DOUBLE_EQ(again[0].peak_profit(), 5.0);
  EXPECT_TRUE(again[0].has_deadline());  // decay collapsed to a step
}

}  // namespace
}  // namespace dagsched
