// Corruption fuzzing of the .wl reader.  Every mutation of a small valid
// workload must either parse to a JobSet or throw ParseError -- never any
// other exception, never a crash, never UB (the sanitizer job runs this
// binary too), and never an allocation sized by a corrupt count instead of
// by the input bytes.
//
// This binary replaces the global operator new to record the largest
// single request, so it is its own test target (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <string_view>

#include "util/parse_error.h"
#include "workload/workload_io.h"

namespace {
// Largest operator-new request since the last reset.  Single-threaded test
// binary; no atomicity needed.
std::size_t g_largest_request = 0;

void* tracked_alloc(std::size_t size) noexcept {
  if (size > g_largest_request) g_largest_request = size;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every unaligned form is replaced, so none pairs with a sanitizer's own
// operator new; the aligned forms stay as a matched default pair.
void* operator new(std::size_t size) {
  if (void* p = tracked_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dagsched {
namespace {

// One job per profit kind, with edges, a comment and a blank line.
const char* const kWorkload =
    "dagsched-workload 1\n"
    "# four jobs, one per profit kind\n"
    "job 0\n"
    "profit step 10 14\n"
    "nodes 4\n"
    "1 2.5 4 0.125\n"
    "edges 3\n"
    "0 1\n"
    "0 2\n"
    "2 3\n"
    "end\n"
    "\n"
    "job 2.5\n"
    "profit plateau_linear 6 8 20\n"
    "nodes 1\n"
    "3.5\n"
    "edges 0\n"
    "end\n"
    "job 4\n"
    "profit plateau_exp 2 5 0.25\n"
    "nodes 3\n"
    "1 2 1\n"
    "edges 2\n"
    "0 1\n"
    "1 2\n"
    "end\n"
    "job 6\n"
    "profit piecewise 3 2 9 6 4 11 1.5\n"
    "nodes 2\n"
    "2 2\n"
    "edges 1\n"
    "1 0\n"
    "end\n";

// No parse of this ~500-byte input needs a buffer anywhere near this.
constexpr std::size_t kAllocationCeiling = std::size_t{1} << 20;

enum class Outcome { kParsed, kRejected };

/// Parses `bytes`; a ParseError is a rejection, and any other exception
/// propagates and fails the calling test.
Outcome parse(std::string_view bytes) {
  g_largest_request = 0;
  Outcome outcome = Outcome::kParsed;
  try {
    (void)read_workload(bytes, "<fuzz>");
  } catch (const ParseError&) {
    outcome = Outcome::kRejected;
  }
  EXPECT_LT(g_largest_request, kAllocationCeiling)
      << "allocation sized by a corrupt field in:\n" << bytes;
  return outcome;
}

TEST(WorkloadFuzz, PristineInputParses) {
  EXPECT_EQ(parse(kWorkload), Outcome::kParsed);
  EXPECT_EQ(read_workload(std::string_view(kWorkload), "<fuzz>").size(), 4u);
}

TEST(WorkloadFuzz, EveryTruncationIsAParseErrorOrAJobSet) {
  const std::string_view bytes = kWorkload;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string_view prefix = bytes.substr(0, len);
    const Outcome outcome = parse(prefix);
    // A cut between a job line and its 'end' always leaves a broken job.
    const std::size_t job = prefix.rfind("job ");
    if (job != std::string_view::npos &&
        prefix.find("end", job) == std::string_view::npos) {
      EXPECT_EQ(outcome, Outcome::kRejected) << "truncation at " << len;
    }
  }
}

TEST(WorkloadFuzz, BitFlipsNeverEscapeTheErrorType) {
  const std::string bytes = kWorkload;
  std::mt19937_64 rng(20170724);
  std::size_t rejected = 0;
  for (int flip = 0; flip < 2000; ++flip) {
    std::string mutated = bytes;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (rng() % 8)));
    if (parse(mutated) == Outcome::kRejected) ++rejected;
  }
  // Flips inside a number or a comment can stay valid; most cannot.
  EXPECT_GT(rejected, 1000u);
}

TEST(WorkloadFuzz, ForgedCountsFailAsMissingInput) {
  struct Forgery {
    const char* from;
    const char* to;
    const char* message;
  };
  const Forgery forgeries[] = {
      {"nodes 4\n", "nodes 4294967296\n", "missing node work"},
      {"nodes 4\n", "nodes 9223372036854775808\n", "missing node work"},
      {"edges 3\n", "edges 4294967296\n", "bad edge source 'end'"},
      {"edges 3\n", "edges 9223372036854775808\n", "bad edge source 'end'"},
      {"piecewise 3 ", "piecewise 4294967296 ", "missing piecewise level end"},
      {"piecewise 3 ", "piecewise 9223372036854775808 ",
       "missing piecewise level end"},
  };
  for (const Forgery& forgery : forgeries) {
    std::string forged = kWorkload;
    forged.replace(forged.find(forgery.from), std::string(forgery.from).size(),
                   forgery.to);
    g_largest_request = 0;
    try {
      (void)read_workload(forged, "<fuzz>");
      ADD_FAILURE() << "accepted forged count " << forgery.to;
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find(forgery.message),
                std::string::npos)
          << error.what();
    }
    EXPECT_LT(g_largest_request, kAllocationCeiling) << forgery.to;
  }
}

}  // namespace
}  // namespace dagsched
