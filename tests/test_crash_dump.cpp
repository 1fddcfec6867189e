// CrashDumpGuard: a DS_CHECK failure must flush the pending decision-event
// buffer (plus a final engine-abort event) to disk before the process dies.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/crash_dump.h"
#include "obs/event_log.h"
#include "util/check.h"

namespace dagsched {
namespace {

TEST(CrashDumpDeathTest, FlushesEventsAndEmitsEngineAbort) {
  const std::string path = ::testing::TempDir() + "crash_events.jsonl";
  std::remove(path.c_str());

  // The death-test child installs the guard, buffers two events, then trips
  // a DS_CHECK; the parent inspects the file the dying child left behind.
  EXPECT_DEATH(
      {
        EventLog log;
        log.emit(1.0, 0, ObsEventKind::kArrival);
        log.emit(2.5, 0, ObsEventKind::kAdmit, "window-fits",
                 {{"v", 1.5}, {"n", 2.0}});
        CrashDumpGuard guard(&log, path);
        DS_CHECK_MSG(false, "synthetic failure for the crash-dump test");
      },
      "DS_CHECK failed");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "crash dump was not written to " << path;
  JsonlError error;
  const auto events = EventLog::parse_jsonl(in, &error);
  ASSERT_TRUE(events.has_value()) << error.message;
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].kind, ObsEventKind::kArrival);
  EXPECT_EQ((*events)[1].kind, ObsEventKind::kAdmit);
  EXPECT_EQ((*events)[1].reason, "window-fits");
  EXPECT_EQ((*events)[2].kind, ObsEventKind::kEngineAbort);
  EXPECT_EQ((*events)[2].reason, "ds-check");
  // The abort event is stamped with the last known simulation time.
  EXPECT_EQ((*events)[2].time, 2.5);
}

TEST(CrashDump, GuardRestoresPreviousHookOnDestruction) {
  bool outer_called = false;
  CheckFailureHook outer = [&outer_called](const std::string&) {
    outer_called = true;
  };
  const CheckFailureHook before = set_check_failure_hook(outer);
  {
    EventLog log;
    CrashDumpGuard guard(&log, ::testing::TempDir() + "unused.jsonl");
    // Guard owns the hook inside this scope...
  }
  // ...and hands the previous hook back afterwards.  We cannot trip
  // DS_CHECK without dying, but we can verify the slot by swapping again.
  const CheckFailureHook restored = set_check_failure_hook(before);
  EXPECT_TRUE(static_cast<bool>(restored));
  EXPECT_FALSE(outer_called);
}

TEST(CrashDumpDeathTest, StreamedLogEndsOnCompleteLine) {
  // Streaming mode: the guard must truncate a partial trailing JSONL
  // record (here simulated by a raw write that a buffer-boundary flush
  // could leave behind) before appending the engine-abort event, so the
  // dump always parses end to end.
  const std::string path = ::testing::TempDir() + "crash_stream.jsonl";
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        std::ofstream out(path);
        EventLog log;
        log.stream_to(&out);
        log.emit(1.0, 0, ObsEventKind::kArrival);
        log.emit(2.0, 1, ObsEventKind::kArrival);
        out << "{\"t\":3,\"jo";  // ragged tail: a half-flushed record
        CrashDumpGuard guard(&log, path);
        DS_CHECK_MSG(false, "synthetic failure for the streamed-dump test");
      },
      "DS_CHECK failed");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "streamed crash dump missing at " << path;
  JsonlError error;
  const auto events = EventLog::parse_jsonl(in, &error);
  ASSERT_TRUE(events.has_value()) << error.message;  // no partial record survived
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].kind, ObsEventKind::kArrival);
  EXPECT_EQ((*events)[1].kind, ObsEventKind::kArrival);
  EXPECT_EQ((*events)[2].kind, ObsEventKind::kEngineAbort);
  EXPECT_EQ((*events)[2].reason, "ds-check");
  EXPECT_EQ((*events)[2].time, 2.0);
}

TEST(CrashDump, StreamedEmitMatchesWriteJsonlBytes) {
  EventLog streamed, buffered;
  std::ostringstream live;
  streamed.stream_to(&live);
  for (int i = 0; i < 4; ++i) {
    const auto t = static_cast<Time>(i);
    streamed.emit(t, static_cast<JobId>(i), ObsEventKind::kAdmit,
                  "window-fits", {{"v", 1.5}, {"n", 2.0}});
    buffered.emit(t, static_cast<JobId>(i), ObsEventKind::kAdmit,
                  "window-fits", {{"v", 1.5}, {"n", 2.0}});
  }
  std::ostringstream at_end;
  buffered.write_jsonl(at_end);
  EXPECT_EQ(live.str(), at_end.str());
}

}  // namespace
}  // namespace dagsched
