// Gantt rendering: ASCII layout and SVG structure.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/list_scheduler.h"
#include "dag/generators.h"
#include "sim/event_engine.h"
#include "sim/gantt.h"

namespace dagsched {
namespace {

Trace simple_trace() {
  Trace trace;
  trace.add(0.0, 2.0, 0, 0, 0);
  trace.add(2.0, 4.0, 1, 0, 0);
  trace.add(0.0, 4.0, 2, 0, 1);
  return trace;
}

TEST(AsciiGantt, RendersRowsAndLegend) {
  const std::string out = to_ascii_gantt(simple_trace(), 2);
  EXPECT_NE(out.find("P0"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("J0='0'"), std::string::npos);
  EXPECT_NE(out.find("J2='2'"), std::string::npos);
  // Row P1 is fully busy with job 2: no idle dots between the pipes.
  const auto p1 = out.find("P1  |");
  ASSERT_NE(p1, std::string::npos);
  const std::string row = out.substr(p1 + 5, 100);
  EXPECT_EQ(row.find('.'), std::string::npos);
}

TEST(AsciiGantt, IdleShownAsDots) {
  Trace trace;
  trace.add(0.0, 1.0, 0, 0, 0);  // busy only the first tenth of [0,10)
  trace.add(9.0, 10.0, 1, 0, 0);
  const std::string out = to_ascii_gantt(trace, 1);
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(SvgGantt, WellFormedWithRects) {
  const std::string svg = to_svg_gantt(simple_trace(), 2);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Three intervals -> three rects with per-job titles.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 3u);
  EXPECT_NE(svg.find("<title>J2 node 0"), std::string::npos);
}

TEST(Gantt, EmptyTraceRendersWithoutCrashing) {
  const std::string ascii = to_ascii_gantt(Trace{}, 3);
  EXPECT_NE(ascii.find("P2"), std::string::npos);
  const std::string svg = to_svg_gantt(Trace{}, 3);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Gantt, EndToEndFromEngineTrace) {
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_parallel_block(8, 1.0)), 0.0, 10.0,
      1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  options.record_trace = true;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  const std::string out = to_ascii_gantt(result.trace, 4);
  // All four processors busy at the start.
  for (const char* row : {"P0  |0", "P1  |0", "P2  |0", "P3  |0"}) {
    EXPECT_NE(out.find(row), std::string::npos) << row;
  }
}

}  // namespace
}  // namespace dagsched
