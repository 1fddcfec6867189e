// Workload (de)serialization: round trips, schedule-equivalence of loaded
// instances, malformed-input errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "sim/kernel/engine_factory.h"
#include "util/parse_error.h"
#include "workload/scenarios.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

void expect_jobsets_equal(const JobSet& a, const JobSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].release(), b[i].release()) << "job " << i;
    EXPECT_DOUBLE_EQ(a[i].work(), b[i].work()) << "job " << i;
    EXPECT_DOUBLE_EQ(a[i].span(), b[i].span()) << "job " << i;
    EXPECT_EQ(a[i].dag().num_nodes(), b[i].dag().num_nodes());
    EXPECT_EQ(a[i].dag().num_edges(), b[i].dag().num_edges());
    EXPECT_DOUBLE_EQ(a[i].peak_profit(), b[i].peak_profit());
    // Sample the profit functions on a grid.
    for (double t = 0.0; t < 50.0; t += 0.7) {
      EXPECT_NEAR(a[i].profit().at(t), b[i].profit().at(t), 1e-9)
          << "job " << i << " t " << t;
    }
  }
}

JobSet round_trip(const JobSet& jobs) {
  std::stringstream buffer;
  write_workload(buffer, jobs);
  return read_workload(buffer);
}

TEST(WorkloadIo, RoundTripStepJobs) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_fig1_dag(4, 3, 1.0)), 0.5, 10.0, 2.0));
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_chain(5, 0.75)), 3.0, 8.0, 1.5));
  jobs.finalize();
  expect_jobsets_equal(jobs, round_trip(jobs));
}

TEST(WorkloadIo, RoundTripAllProfitShapes) {
  auto dag = std::make_shared<const Dag>(make_parallel_block(4, 1.0));
  JobSet jobs;
  jobs.add(Job(dag, 0.0, ProfitFn::step(2.0, 5.0)));
  jobs.add(Job(dag, 1.0, ProfitFn::plateau_linear(3.0, 4.0, 12.0)));
  jobs.add(Job(dag, 2.0, ProfitFn::plateau_exponential(1.5, 6.0, 0.25)));
  jobs.add(Job(dag, 3.0,
               ProfitFn::piecewise({{2.0, 5.0}, {4.0, 3.0}, {9.0, 1.0}})));
  jobs.finalize();
  expect_jobsets_equal(jobs, round_trip(jobs));
}

std::string written(const JobSet& jobs) {
  std::ostringstream out;
  write_workload(out, jobs);
  return std::move(out).str();
}

TEST(WorkloadIo, ProfitRoundTripsAreExact) {
  // Each shape, including the values a writer that probed the function
  // got wrong: a two-level staircase whose midpoint lies on the line
  // through its ends (once written as plateau_linear), level ends that
  // came back as 2.0000000023283064, and a rate of 0.1 that came back as
  // 0.099999999999999936.
  const std::vector<ProfitFn> shapes = {
      ProfitFn::step(2.0, 5.0),
      ProfitFn::step(0.1, 1.0 / 3.0),
      ProfitFn::plateau_linear(3.0, 4.0, 12.0),
      ProfitFn::plateau_linear(0.7, 1e-3, 2.0 / 3.0),
      ProfitFn::plateau_exponential(1.5, 6.0, 0.25),
      ProfitFn::plateau_exponential(2.0, 3.0, 0.1),
      ProfitFn::plateau_exponential(1.0, 0.3, 1e-7),
      ProfitFn::piecewise({{2.0, 4.0}, {6.0, 2.0}}),
      ProfitFn::piecewise({{2.0, 5.0}, {4.0, 3.0}, {9.0, 1.0}}),
      ProfitFn::piecewise({{0.1, 3.0}, {0.2, 3.0}, {1.0 / 3.0, 0.3}}),
      ProfitFn::piecewise({{7.5, 1.0}}),
  };
  auto dag = std::make_shared<const Dag>(make_chain(2, 1.0));
  for (const ProfitFn& shape : shapes) {
    JobSet jobs;
    jobs.add(Job(dag, 0.0, shape));
    jobs.finalize();
    const std::string first = written(jobs);
    const JobSet loaded = read_workload(first, "<test>");
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded[0].profit() == shape) << first;
    EXPECT_EQ(written(loaded), first);
  }
  // The staircase keeps its own value between the levels' ends.
  const ProfitFn stairs = ProfitFn::piecewise({{2.0, 4.0}, {6.0, 2.0}});
  JobSet jobs;
  jobs.add(Job(dag, 0.0, stairs));
  jobs.finalize();
  const JobSet loaded = read_workload(written(jobs), "<test>");
  EXPECT_EQ(loaded[0].profit().kind(), ProfitFn::Kind::kPiecewise);
  EXPECT_EQ(loaded[0].profit().at(3.0), 2.0);
  EXPECT_NE(written(jobs).find("profit piecewise 2 2 4 6 2\n"),
            std::string::npos);
}

TEST(WorkloadIo, RoundTripGeneratedWorkload) {
  Rng rng(314);
  const JobSet jobs = generate_workload(rng, scenario_thm2(0.5, 0.8, 8));
  ASSERT_GT(jobs.size(), 5u);
  expect_jobsets_equal(jobs, round_trip(jobs));
}

TEST(WorkloadIo, LoadedInstanceSchedulesIdentically) {
  Rng rng(141);
  const JobSet original = generate_workload(rng, scenario_thm2(0.5, 0.9, 4));
  const JobSet loaded = round_trip(original);

  auto run = [](const JobSet& jobs) {
    ListScheduler scheduler({ListPolicy::kEdf, false});
    auto selector = make_selector(SelectorKind::kFifo);
    SimOptions options;
    options.num_procs = 4;
    return run_simulation(EngineKind::kEvent, jobs, scheduler, *selector,
                          options).total_profit;
  };
  EXPECT_DOUBLE_EQ(run(original), run(loaded));
}

TEST(WorkloadIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dagsched_io_test.wl";
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(2.0)), 0.0, 4.0, 1.0));
  jobs.finalize();
  save_workload(path, jobs);
  expect_jobsets_equal(jobs, load_workload(path));
  std::remove(path.c_str());
}

TEST(WorkloadIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "dagsched-workload 1\n"
      "\n"
      "job 0\n"
      "# profit next\n"
      "profit step 1 4\n"
      "nodes 2\n"
      "1.0 2.0\n"
      "edges 1\n"
      "0 1\n"
      "end\n");
  const JobSet jobs = read_workload(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].work(), 3.0);
  EXPECT_DOUBLE_EQ(jobs[0].span(), 3.0);
}

TEST(WorkloadIo, MalformedInputsThrowWithLineNumbers) {
  const char* bad_inputs[] = {
      "",                                       // empty
      "not-a-workload 1\n",                     // bad magic
      "dagsched-workload 99\n",                 // bad version
      "dagsched-workload 1\njob zero\n",        // bad release
      "dagsched-workload 1\njob 0\nprofit step 1\n",  // truncated profit
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 0\n",  // 0 nodes
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 2\n1.0\n",  // few
      "dagsched-workload 1\njob 0\nprofit step 1 4\nnodes 1\n1\nedges 1\n",
  };
  for (const char* text : bad_inputs) {
    std::stringstream in(text);
    EXPECT_THROW(read_workload(in), std::runtime_error) << text;
  }
}

// ---- buffer boundaries ----------------------------------------------------
//
// The reader scans one in-memory buffer; these pin its edges: the last
// byte, line ends, and bytes a line-based reader never had to think about.

ParseError parse_error_of(const std::string& text) {
  try {
    (void)read_workload(text, "edge.wl");
  } catch (const ParseError& error) {
    return error;
  }
  ADD_FAILURE() << "expected ParseError for:\n" << text;
  return ParseError("none", 0, 0, "no error");
}

const std::string kOneJob =
    "dagsched-workload 1\n"
    "job 0\n"
    "profit step 2 10\n"
    "nodes 3\n"
    "1 2 3\n"
    "edges 2\n"
    "0 1\n"
    "1 2\n"
    "end";

TEST(WorkloadIo, FinalEndWithoutNewlineParses) {
  const JobSet jobs = read_workload(kOneJob, "edge.wl");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].span(), 6.0);
}

TEST(WorkloadIo, InputEndingMidTokenIsPositioned) {
  // Inside the 'end' keyword, a node work, and the edges keyword.
  ParseError error = parse_error_of(kOneJob.substr(0, kOneJob.size() - 1));
  EXPECT_EQ(error.line(), 9u);
  EXPECT_EQ(error.column(), 1u);
  EXPECT_NE(std::string(error.what()).find("expected 'end', got 'en'"),
            std::string::npos)
      << error.what();

  error = parse_error_of(
      "dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 2\n1 2e");
  EXPECT_EQ(error.line(), 5u);
  EXPECT_EQ(error.column(), 3u);
  EXPECT_NE(std::string(error.what()).find("trailing junk in node work '2e'"),
            std::string::npos)
      << error.what();

  error = parse_error_of(
      "dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 1\n1\nedg");
  EXPECT_EQ(error.line(), 6u);
  EXPECT_NE(std::string(error.what()).find("expected 'edges', got 'edg'"),
            std::string::npos)
      << error.what();
}

TEST(WorkloadIo, CarriageReturnOnlyLinesBetweenEdgesAreBlank) {
  const JobSet jobs = read_workload(
      "dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 3\n1 2 3\n"
      "edges 2\n0 1\n\r\n\r\r\n1 2\r\nend\r\n",
      "edge.wl");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].dag().num_edges(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].span(), 6.0);
}

TEST(WorkloadIo, CommentsInsideTheEdgeBlockCountTowardLineNumbers) {
  const std::string text =
      "dagsched-workload 1\njob 0\nprofit step 2 10\nnodes 3\n1 2 3\n"
      "edges 2\n"
      "# first edge\n"
      "0 1\n"
      "  # second edge\n"
      "\n"
      "1 2\n";
  const JobSet jobs = read_workload(text + "end\n", "edge.wl");
  EXPECT_EQ(jobs[0].dag().num_edges(), 2u);
  // Line 12 is the first line past the comments and the blank line.
  const ParseError error = parse_error_of(text + "fin\n");
  EXPECT_EQ(error.line(), 12u);
  EXPECT_EQ(error.column(), 1u);
  EXPECT_NE(std::string(error.what()).find("expected 'end'"),
            std::string::npos);
  EXPECT_EQ(parse_error_of(text).line(), 12u);  // missing 'end'
}

TEST(WorkloadIo, NulByteInsideATokenIsAParseError) {
  std::string work = kOneJob;
  work.replace(work.find("1 2 3"), 5, std::string("1 2\0x 3", 7));
  ParseError error = parse_error_of(work);
  EXPECT_EQ(error.line(), 5u);
  EXPECT_EQ(error.column(), 3u);
  EXPECT_NE(std::string(error.what()).find("trailing junk in node work"),
            std::string::npos)
      << error.what();

  std::string edge = kOneJob;
  edge.replace(edge.find("1 2\nend"), 1, std::string("1\0", 2));
  error = parse_error_of(edge);
  EXPECT_EQ(error.line(), 8u);
  EXPECT_EQ(error.column(), 1u);
  EXPECT_NE(std::string(error.what()).find("bad edge source"),
            std::string::npos)
      << error.what();
}

std::string text_of(const JobSet& jobs) {
  std::ostringstream out;
  write_workload(out, jobs);
  return out.str();
}

/// The stream, buffer and file entry points build the same JobSet.
void expect_entry_points_agree(const std::string& path) {
  const JobSet from_file = load_workload(path);
  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  std::istringstream stream(bytes.str());
  const std::string expected = text_of(from_file);
  EXPECT_EQ(text_of(read_workload(stream, path)), expected);
  EXPECT_EQ(text_of(read_workload(bytes.str(), path)), expected);
}

TEST(WorkloadIo, EntryPointsAgreeOnTheSample) {
  expect_entry_points_agree(std::string(DAGSCHED_DATA_DIR) + "/sample.wl");
}

TEST(WorkloadIo, EntryPointsAgreeOnAGeneratedThm2Instance) {
  Rng rng(2017);
  WorkloadConfig config = scenario_thm2(0.5, 4.0, 16);
  config.horizon = 800.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 1500u);
  const std::string path = ::testing::TempDir() + "/dagsched_io_thm2.wl";
  save_workload(path, jobs);
  expect_entry_points_agree(path);
  EXPECT_EQ(text_of(load_workload(path)), text_of(jobs));
  std::remove(path.c_str());
}

TEST(WorkloadIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_workload("/nonexistent/definitely/missing.wl"),
               std::runtime_error);
}

}  // namespace
}  // namespace dagsched
