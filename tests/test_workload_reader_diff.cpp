// The one-cursor .wl reader against a reference: a test-local copy of the
// LineScanner/Fields reader it replaced (a memchr per line, a Fields object
// per line, each token scanned before it is parsed).  On every input --
// seeded random valid workloads in every spelling the format allows, the
// same inputs with single tokens swapped for hostile ones, and every
// truncation, bit flip and forged count of the WorkloadFuzz corpus -- both
// readers must either write back the same bytes or throw the same
// ParseError message, and so must the current reader with its records cut
// into 1 to 8 pieces parsed on their own threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dag/builder.h"
#include "util/parse_error.h"
#include "util/rng.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

// ---- the replaced reader, step for step ------------------------------------

constexpr const char* kMagic = "dagsched-workload";
constexpr int kVersion = 1;

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Hands out the lines of the workload bytes that are neither blank nor
/// '#' comments.  Every line counts toward `lineno()`, so diagnostics keep
/// the positions a reader sees in an editor.
class LineScanner {
 public:
  explicit LineScanner(std::string_view bytes) : bytes_(bytes) {}

  /// Moves to the next non-blank, non-comment line; false at end of input.
  bool next(std::string_view& line) {
    while (pos_ < bytes_.size()) {
      const char* begin = bytes_.data() + pos_;
      const std::size_t left = bytes_.size() - pos_;
      const auto* newline =
          static_cast<const char*>(std::memchr(begin, '\n', left));
      const std::size_t length =
          newline == nullptr ? left : static_cast<std::size_t>(newline - begin);
      pos_ += newline == nullptr ? length : length + 1;
      ++lineno_;
      std::size_t first = 0;
      while (first < length && is_ws(begin[first])) ++first;
      if (first == length || begin[first] == '#') continue;
      line = std::string_view(begin, length);
      return true;
    }
    return false;
  }

  std::size_t lineno() const { return lineno_; }
  /// Bytes not yet scanned: an upper bound on what later lines can hold.
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::size_t lineno_ = 0;
};

/// Whitespace-token cursor over one line, tracking the 1-based column of
/// each token so diagnostics can point at the offending field.  Tokens are
/// views into the line; strings are built only for diagnostics.
class Fields {
 public:
  Fields(const std::string& source, std::string_view line, std::size_t lineno)
      : source_(source), line_(line), lineno_(lineno) {}

  [[noreturn]] void fail(std::size_t column, const std::string& what) const {
    throw ParseError(source_, lineno_, column, what);
  }

  /// Column (1-based) where the next token would start.
  std::size_t next_column() {
    skip_ws();
    return pos_ + 1;
  }

  /// Number of bytes left on the line.
  std::size_t remaining() const { return line_.size() - pos_; }

  std::string_view token(std::string_view what) {
    skip_ws();
    if (pos_ >= line_.size()) fail(pos_ + 1, "missing " + std::string(what));
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_ws(line_[pos_])) ++pos_;
    return line_.substr(start, pos_ - start);
  }

  /// Parses a finite double with std::stod's grammar; rejects NaN/inf and
  /// trailing junk.
  double number(std::string_view what) {
    const std::size_t column = next_column();
    const std::string_view tok = token(what);
    // from_chars agrees with stod on every token it consumes whole to a
    // finite value above the smallest normal double.  Everything else --
    // zero, values that underflow (stod's ERANGE also covers tokens that
    // round up to exactly the smallest normal), inf/nan, '+', hex floats,
    // a leading \v or \f -- goes to stod, which keeps the accepted set and
    // the diagnostics exactly as they were.
    double value = 0.0;
    const char* const end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, value);
    if (ec == std::errc() && stop == end && std::isfinite(value) &&
        std::fabs(value) > std::numeric_limits<double>::min()) {
      return value;
    }
    return stod_number(column, std::string(tok), what);
  }

  /// Parses a non-negative integer (node ids, counts).
  std::size_t index(std::string_view what) {
    const std::size_t column = next_column();
    const std::string_view tok = token(what);
    for (const char c : tok) {
      if (c < '0' || c > '9') {
        fail(column, "bad " + std::string(what) + " '" + std::string(tok) +
                         "' (expected a non-negative integer)");
      }
    }
    std::size_t value = 0;
    const auto [stop, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc()) {
      fail(column, std::string(what) + " '" + std::string(tok) +
                       "' out of range");
    }
    return value;
  }

  void expect_end() {
    skip_ws();
    if (pos_ < line_.size()) {
      fail(pos_ + 1, "trailing junk '" + std::string(line_.substr(pos_)) + "'");
    }
  }

 private:
  void skip_ws() {
    while (pos_ < line_.size() && is_ws(line_[pos_])) ++pos_;
  }

  double stod_number(std::size_t column, const std::string& tok,
                     std::string_view what) const {
    const std::string name(what);
    double value = 0.0;
    std::size_t used = 0;
    try {
      value = std::stod(tok, &used);
    } catch (const std::exception&) {
      fail(column, "bad " + name + " '" + tok + "'");
    }
    if (used != tok.size()) {
      fail(column, "trailing junk in " + name + " '" + tok + "'");
    }
    if (!std::isfinite(value)) {
      fail(column, name + " must be finite, got '" + tok + "'");
    }
    return value;
  }

  const std::string& source_;
  std::string_view line_;
  std::size_t lineno_;
  std::size_t pos_ = 0;
};


ProfitFn read_profit(Fields in) {
  const std::size_t kw_col = in.next_column();
  const std::string_view keyword = in.token("profit keyword");
  if (keyword != "profit") {
    in.fail(kw_col, "expected 'profit', got '" + std::string(keyword) + "'");
  }
  const std::size_t kind_col = in.next_column();
  const std::string_view kind = in.token("profit kind");
  if (kind == "step") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t d_col = in.next_column();
    const double d = in.number("deadline");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(d > 0.0)) in.fail(d_col, "deadline must be positive");
    in.expect_end();
    return ProfitFn::step(p, d);
  }
  if (kind == "plateau_linear") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t plateau_col = in.next_column();
    const double plateau = in.number("plateau end");
    const std::size_t zero_col = in.next_column();
    const double zero = in.number("zero point");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(plateau > 0.0)) in.fail(plateau_col, "plateau end must be positive");
    if (!(zero > plateau)) {
      in.fail(zero_col, "zero point must exceed the plateau end");
    }
    in.expect_end();
    return ProfitFn::plateau_linear(p, plateau, zero);
  }
  if (kind == "plateau_exp") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t plateau_col = in.next_column();
    const double plateau = in.number("plateau end");
    const std::size_t rate_col = in.next_column();
    const double rate = in.number("decay rate");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(plateau > 0.0)) in.fail(plateau_col, "plateau end must be positive");
    if (!(rate > 0.0)) in.fail(rate_col, "decay rate must be positive");
    in.expect_end();
    return ProfitFn::plateau_exponential(p, plateau, rate);
  }
  if (kind == "piecewise") {
    const std::size_t count_col = in.next_column();
    const std::size_t count = in.index("piecewise level count");
    if (count == 0) in.fail(count_col, "piecewise level count must be >= 1");
    // Sized by what the line can hold, not by the declared count: a
    // corrupt count must fail as a missing level, not as an allocation.
    std::vector<std::pair<Time, Profit>> levels;
    levels.reserve(std::min(count, in.remaining() / 4));
    Time prev_end = 0.0;
    std::size_t rise_col = 0;  // first level whose profit exceeds the last
    for (std::size_t level = 0; level < count; ++level) {
      const std::size_t t_col = in.next_column();
      const Time t = in.number("piecewise level end");
      const std::size_t p_col = in.next_column();
      const Profit p = in.number("piecewise level profit");
      if (!(t > prev_end)) {
        in.fail(t_col, "piecewise level ends must be strictly increasing");
      }
      if (!(p > 0.0)) in.fail(p_col, "piecewise profit must be positive");
      if (rise_col == 0 && !levels.empty() && p > levels.back().second) {
        rise_col = p_col;
      }
      prev_end = t;
      levels.emplace_back(t, p);
    }
    in.expect_end();
    // Checked last, where ProfitFn::piecewise would reject it, so every
    // other diagnostic on the line keeps its precedence.
    if (rise_col != 0) {
      in.fail(rise_col, "piecewise level profits must not increase");
    }
    return ProfitFn::piecewise(std::move(levels));
  }
  in.fail(kind_col, "unknown profit kind '" + std::string(kind) + "'");
}


JobSet reference_read(std::string_view bytes, const std::string& source) {
  LineScanner lines(bytes);
  std::string_view line;
  // Reads the next line or fails with a diagnostic just past the input.
  auto need_line = [&](const char* what) {
    if (!lines.next(line)) {
      throw ParseError(source, lines.lineno() + 1, 1,
                       std::string("missing ") + what);
    }
    return Fields(source, line, lines.lineno());
  };
  if (!lines.next(line)) throw ParseError(source, 1, 1, "empty input");
  {
    Fields in(source, line, lines.lineno());
    const std::size_t magic_col = in.next_column();
    const std::string_view magic = in.token("header magic");
    if (magic != kMagic) {
      in.fail(magic_col, "bad header (expected '" + std::string(kMagic) +
                             " " + std::to_string(kVersion) + "')");
    }
    const std::size_t version_col = in.next_column();
    const std::size_t version = in.index("format version");
    if (version != static_cast<std::size_t>(kVersion)) {
      in.fail(version_col,
              "unsupported version " + std::to_string(version) +
                  " (expected " + std::to_string(kVersion) + ")");
    }
    in.expect_end();
  }

  JobSet jobs;
  // One works/edges scratch for the whole load, reused by every job.
  std::vector<Work> works;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<NodeId> pending;
  while (lines.next(line)) {
    Fields job_in(source, line, lines.lineno());
    const std::size_t kw_col = job_in.next_column();
    const std::string_view keyword = job_in.token("job keyword");
    if (keyword != "job") {
      job_in.fail(kw_col, "expected 'job', got '" + std::string(keyword) + "'");
    }
    const std::size_t release_col = job_in.next_column();
    const Time release = job_in.number("release time");
    if (release < 0.0) job_in.fail(release_col, "release time must be >= 0");
    job_in.expect_end();

    ProfitFn profit = read_profit(need_line("profit line"));

    Fields nodes_in = need_line("nodes line");
    const std::size_t nodes_kw_col = nodes_in.next_column();
    const std::string_view nodes_kw = nodes_in.token("nodes keyword");
    if (nodes_kw != "nodes") {
      nodes_in.fail(nodes_kw_col,
                    "expected 'nodes', got '" + std::string(nodes_kw) + "'");
    }
    const std::size_t count_col = nodes_in.next_column();
    const std::size_t num_nodes = nodes_in.index("node count");
    if (num_nodes == 0) nodes_in.fail(count_col, "node count must be >= 1");
    nodes_in.expect_end();

    // The scratch vectors grow only as tokens parse, never from a declared
    // count alone: a corrupt count must fail as missing input, not as an
    // allocation.
    Fields works_in = need_line("node works line");
    works.clear();
    for (std::size_t i = 0; i < num_nodes; ++i) {
      const std::size_t work_col = works_in.next_column();
      const Work work = works_in.number("node work");
      if (!(work > 0.0)) works_in.fail(work_col, "node work must be positive");
      works.push_back(work);
    }
    works_in.expect_end();

    Fields edges_in = need_line("edges line");
    const std::size_t edges_kw_col = edges_in.next_column();
    const std::string_view edges_kw = edges_in.token("edges keyword");
    if (edges_kw != "edges") {
      edges_in.fail(edges_kw_col,
                    "expected 'edges', got '" + std::string(edges_kw) + "'");
    }
    const std::size_t num_edges = edges_in.index("edge count");
    edges_in.expect_end();
    edges.clear();
    for (std::size_t e = 0; e < num_edges; ++e) {
      Fields edge_in = need_line("edge line");
      const std::size_t from_col = edge_in.next_column();
      const std::size_t from = edge_in.index("edge source");
      const std::size_t to_col = edge_in.next_column();
      const std::size_t to = edge_in.index("edge target");
      if (from >= num_nodes) {
        edge_in.fail(from_col, "edge source " + std::to_string(from) +
                                   " out of range (nodes: " +
                                   std::to_string(num_nodes) + ")");
      }
      if (to >= num_nodes) {
        edge_in.fail(to_col, "edge target " + std::to_string(to) +
                                 " out of range (nodes: " +
                                 std::to_string(num_nodes) + ")");
      }
      if (from == to) edge_in.fail(from_col, "self-edge");
      edge_in.expect_end();
      edges.emplace_back(static_cast<NodeId>(from), static_cast<NodeId>(to));
    }

    Fields end_in = need_line("'end'");
    const std::size_t end_col = end_in.next_column();
    const std::string_view end_kw = end_in.token("end keyword");
    if (end_kw != "end") {
      end_in.fail(end_col, "expected 'end', got '" + std::string(end_kw) + "'");
    }
    end_in.expect_end();

    // pack_dag() rejects cycles and duplicate edges; wrap its exception so
    // the caller still gets a positioned diagnostic.
    try {
      jobs.add(Job(std::make_shared<const Dag>(pack_dag(works, edges, pending)),
                   release, std::move(profit)));
    } catch (const std::invalid_argument& err) {
      throw ParseError(source, lines.lineno(), 1,
                       std::string("invalid DAG: ") + err.what());
    }
  }
  jobs.finalize();
  return jobs;
}

// ---- the differential harness -----------------------------------------------

/// What a reader made of `bytes`: the written-back workload, or the
/// diagnostic, marked so that the two can never compare equal.
template <class Reader>
std::string outcome(Reader read, std::string_view bytes) {
  try {
    std::ostringstream out;
    write_workload(out, read(bytes, "<diff>"));
    return "parsed\n" + std::move(out).str();
  } catch (const ParseError& error) {
    return std::string("ParseError: ") + error.what();
  }
}

JobSet current_read(std::string_view bytes, const std::string& source) {
  return read_workload(bytes, source);
}

/// The current reader with its records cut into at most `chunks` pieces.
auto chunked_read(std::size_t chunks) {
  return [chunks](std::string_view bytes, const std::string& source) {
    return detail::read_workload_chunked(bytes, source, chunks);
  };
}

/// Parses `bytes` with the reference reader, with read_workload, and with
/// the current reader at every piece count up to `max_chunks`; returns
/// true when it parsed.
bool expect_same(std::string_view bytes, std::size_t max_chunks = 8) {
  const std::string want = outcome(reference_read, bytes);
  EXPECT_EQ(outcome(current_read, bytes), want) << "on input:\n" << bytes;
  for (std::size_t chunks = 1; chunks <= max_chunks; ++chunks) {
    EXPECT_EQ(outcome(chunked_read(chunks), bytes), want)
        << "in " << chunks << " pieces, on input:\n" << bytes;
  }
  return want.rfind("parsed", 0) == 0;
}

// Spellings a writer other than write_workload may use.  The generator
// below writes values through them, so both readers see leading zeros,
// exponents, signs, hex floats and every separator the grammar allows.
std::string spell_real(Rng& rng, double value) {
  char buf[64];
  switch (rng.uniform_int(0, 7)) {
    case 0: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
      return {buf, end};
    }
    case 1: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                           std::chars_format::scientific);
      return {buf, end};
    }
    case 2: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                           std::chars_format::scientific, 3);
      std::string text(buf, end);
      const std::size_t e = text.find('e');
      text[e] = 'E';
      return text;
    }
    case 3: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                           std::chars_format::fixed, 4);
      return "00" + std::string(buf, end);
    }
    case 4: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                           std::chars_format::hex);
      return "0x" + std::string(buf, end);
    }
    case 5: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
      return "+" + std::string(buf, end);
    }
    case 6:
      return std::to_string(std::llround(value * 1e3)) + ".e-3";
    default: {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value * 1e3,
                                           std::chars_format::general, 6);
      return std::string(buf, end) + "e-3";
    }
  }
}

std::string spell_index(Rng& rng, std::size_t value) {
  std::string text = std::to_string(value);
  if (rng.bernoulli(0.15)) {
    text.insert(0, static_cast<std::size_t>(rng.uniform_int(1, 24)), '0');
  }
  return text;
}

/// One workload's lines of tokens, before separators are chosen.
using Lines = std::vector<std::vector<std::string>>;

Lines random_lines(Rng& rng) {
  Lines lines = {{"dagsched-workload", spell_index(rng, 1)}};
  const auto jobs = rng.uniform_int(1, 4);
  for (std::int64_t j = 0; j < jobs; ++j) {
    lines.push_back({"job", rng.bernoulli(0.2)
                                ? std::string(rng.bernoulli(0.5) ? "0" : "0e5")
                                : spell_real(rng, rng.uniform(0.0, 50.0))});
    const double peak = rng.uniform(0.5, 20.0);
    const double plateau = rng.uniform(1.0, 30.0);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        lines.push_back({"profit", "step", spell_real(rng, peak),
                         spell_real(rng, plateau)});
        break;
      case 1:
        lines.push_back({"profit", "plateau_linear", spell_real(rng, peak),
                         spell_real(rng, plateau),
                         spell_real(rng, plateau + rng.uniform(1.0, 9.0))});
        break;
      case 2:
        lines.push_back({"profit", "plateau_exp", spell_real(rng, peak),
                         spell_real(rng, plateau),
                         spell_real(rng, rng.uniform(0.05, 2.0))});
        break;
      default: {
        const auto levels = rng.uniform_int(1, 4);
        std::vector<std::string> line = {
            "profit", "piecewise",
            spell_index(rng, static_cast<std::size_t>(levels))};
        double end = 0.0;
        double value = peak;
        for (std::int64_t k = 0; k < levels; ++k) {
          end += rng.uniform(1.0, 10.0);
          value *= rng.uniform(0.5, 0.9);
          line.push_back(spell_real(rng, end));
          line.push_back(spell_real(rng, value));
        }
        lines.push_back(std::move(line));
      }
    }
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 7));
    lines.push_back({"nodes", spell_index(rng, nodes)});
    std::vector<std::string> works;
    for (std::size_t v = 0; v < nodes; ++v) {
      works.push_back(rng.bernoulli(0.3)
                          ? spell_index(rng, static_cast<std::size_t>(
                                                 rng.uniform_int(1, 9)))
                          : spell_real(rng, rng.uniform(0.01, 9.0)));
    }
    lines.push_back(std::move(works));
    // Forward edges only, each pair once: always a DAG.
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t a = 0; a < nodes; ++a) {
      for (std::size_t b = a + 1; b < nodes; ++b) {
        if (rng.bernoulli(0.35)) edges.emplace_back(a, b);
      }
    }
    std::shuffle(edges.begin(), edges.end(), rng);
    lines.push_back({"edges", spell_index(rng, edges.size())});
    for (const auto& [a, b] : edges) {
      lines.push_back({spell_index(rng, a), spell_index(rng, b)});
    }
    lines.push_back({"end"});
  }
  return lines;
}

/// Joins `lines` with random runs of spaces and tabs, LF or CRLF endings,
/// trailing whitespace, and blank and comment lines between any two lines.
std::string render(Rng& rng, const Lines& lines) {
  static const char* const kFillers[] = {"", "   ", "\t", " \t\r",
                                         "# comment", "  #x 1 2", "#"};
  const auto gap = [&rng] {
    std::string out;
    const auto n = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      out += rng.bernoulli(0.5) ? ' ' : '\t';
    }
    return out;
  };
  std::string text;
  for (const auto& line : lines) {
    while (rng.bernoulli(0.15)) {
      text += kFillers[rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kFillers)) - 1)];
      text += rng.bernoulli(0.3) ? "\r\n" : "\n";
    }
    if (rng.bernoulli(0.1)) text += gap();
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (i > 0) text += gap();
      text += line[i];
    }
    if (rng.bernoulli(0.1)) text += gap();
    text += rng.bernoulli(0.3) ? "\r\n" : "\n";
  }
  if (rng.bernoulli(0.2)) text.pop_back();  // no final newline
  return text;
}

TEST(WorkloadReaderParity, RandomValidWorkloadsParseAlike) {
  Rng rng(2017);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = render(rng, random_lines(rng));
    EXPECT_TRUE(expect_same(text)) << "generated an invalid workload";
  }
}

TEST(WorkloadReaderParity, HostileTokensFailAlike) {
  // Tokens at the edges of the two grammars: overflow beside a non-digit,
  // the smallest normal and subnormal doubles, signs, inf/nan, \v and \f,
  // keywords and comments out of place, and an empty token.
  static const std::string_view kHostile[] = {
      "18446744073709551615", "18446744073709551616", "99999999999999999999x",
      "000000000000000000000000000000001", "1x", "-1", "+1", "-0", "0",
      "1e400", "1e-400", "4.9e-324", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "inf", "-infinity", "nan", "NaN(1)",
      "0x1p-3", "0X", "1e", "1e+", "1.5.5", ".", "\v1", "1\f", "\v", "#",
      "end", "job", "edges", "nodes", "step", "piecewise", "1\xff",
      std::string_view("7\0", 2), "\r", ""};
  Rng rng(25);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    Lines lines = random_lines(rng);
    const auto swaps = rng.uniform_int(1, 2);
    for (std::int64_t s = 0; s < swaps; ++s) {
      auto& line = lines[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1))];
      line[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(line.size()) - 1))] =
          kHostile[rng.uniform_int(
              0, static_cast<std::int64_t>(std::size(kHostile)) - 1)];
    }
    if (expect_same(render(rng, lines))) ++parsed;
  }
  // Some swaps keep the input valid ("0" for a release, "+1" for a work).
  EXPECT_LT(parsed, 1500u);
}

// The WorkloadFuzz corpus: one job per profit kind, with edges, a comment
// and a blank line, and the same truncations, bit flips and forged counts.
const char* const kFuzzWorkload =
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

TEST(WorkloadReaderParity, EveryTruncationFailsAlike) {
  const std::string_view bytes = kFuzzWorkload;
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    expect_same(bytes.substr(0, len));
  }
  // And of a generated workload, cut inside CRLFs, tabs and comments.
  Rng rng(11);
  const std::string text = render(rng, random_lines(rng));
  for (std::size_t len = 0; len <= text.size(); ++len) {
    expect_same(std::string_view(text).substr(0, len));
  }
}

TEST(WorkloadReaderParity, BitFlipsFailAlike) {
  const std::string bytes = kFuzzWorkload;
  std::mt19937_64 rng(20170724);
  for (int flip = 0; flip < 2000; ++flip) {
    std::string mutated = bytes;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (rng() % 8)));
    expect_same(mutated);
  }
}

TEST(WorkloadReaderParity, ForgedCountsFailAlike) {
  const std::pair<const char*, const char*> forgeries[] = {
      {"nodes 4\n", "nodes 4294967296\n"},
      {"nodes 4\n", "nodes 9223372036854775808\n"},
      {"edges 3\n", "edges 4294967296\n"},
      {"edges 3\n", "edges 9223372036854775808\n"},
      {"piecewise 3 ", "piecewise 4294967296 "},
      {"piecewise 3 ", "piecewise 9223372036854775808 "},
  };
  for (const auto& [from, to] : forgeries) {
    std::string forged = kFuzzWorkload;
    forged.replace(forged.find(from), std::strlen(from), to);
    EXPECT_FALSE(expect_same(forged)) << to;
  }
}


// ---- where the pieces are cut -----------------------------------------------
//
// Each input below is parsed at every piece count up to 32, so on these
// inputs of a few hundred bytes every `job` line is a cut at some count.

constexpr std::size_t kAllCuts = 32;

/// One valid record under the given `job` line (without its newline).
std::string record(std::string_view header) {
  return std::string(header) +
         "\nprofit step 4 9\nnodes 3\n1 2 1\nedges 2\n0 1\n1 2\nend\n";
}

TEST(WorkloadReaderChunks, IndentedJobLinesAreCuts) {
  const std::string text = "dagsched-workload 1\n" + record("job 0") +
                           record("   job 1") + record("\t \tjob 2") +
                           record("job\r3") + record(" \r job 4");
  EXPECT_TRUE(expect_same(text, kAllCuts));
  EXPECT_EQ(detail::read_workload_chunked(text, "<cut>", kAllCuts).size(), 5u);
}

TEST(WorkloadReaderChunks, JobLookalikesAreNotCuts) {
  // A comment that starts with "job" is skipped wherever it lies.
  EXPECT_TRUE(expect_same("dagsched-workload 1\n" + record("job 0") +
                              "#job 1\n  #job 2\n" + record("job 3") +
                              "#job\n",
                          kAllCuts));
  // "jobs" is not the job keyword, and "job\r" has no release time.
  for (const std::string_view bad : {"jobs 1", "job\r", "job", "jobx 1",
                                     "job# 1", "Job 1"}) {
    EXPECT_FALSE(expect_same("dagsched-workload 1\n" + record("job 0") +
                                 record(bad) + record("job 2"),
                             kAllCuts))
        << bad;
  }
}

TEST(WorkloadReaderChunks, CutAfterARecordWithoutEnd) {
  // The piece before the cut ends without its `end` line; the serial parse
  // instead reads the next `job` line where `end` should be.
  std::string first = record("job 0");
  first.erase(first.rfind("end\n"));
  const std::string text = "dagsched-workload 1\n" + first +
                           record("job 1") + record("job 2");
  EXPECT_FALSE(expect_same(text, kAllCuts));
  EXPECT_EQ(outcome(chunked_read(3), text),
            "ParseError: <diff>:9:1: expected 'end', got 'job'");
  // The same with the last edge line missing, so a cut piece is short of
  // lines that the serial parse takes from the next record.
  std::string short_edges = record("job 0");
  short_edges.erase(short_edges.rfind("1 2\n"), 4);
  EXPECT_FALSE(expect_same("dagsched-workload 1\n" + short_edges +
                               record("job 1") + record("job 2"),
                           kAllCuts));
}

TEST(WorkloadReaderChunks, CutsInsideLeadingComments) {
  std::string text = "dagsched-workload 1\n";
  for (int i = 0; i < 12; ++i) text += "# a long leading comment line\n\n";
  text += record("job 0") + record("job 1");
  EXPECT_TRUE(expect_same(text, kAllCuts));
  // An error in the record after the comments keeps its line in the file.
  EXPECT_FALSE(expect_same(text + "job -1\n", kAllCuts));
}

TEST(WorkloadReaderChunks, MorePiecesThanRecords) {
  EXPECT_TRUE(expect_same("dagsched-workload 1\n", kAllCuts));
  EXPECT_TRUE(expect_same("dagsched-workload 1\n# no jobs\n", kAllCuts));
  EXPECT_TRUE(expect_same("dagsched-workload 1\n" + record("job 0"), kAllCuts));
  EXPECT_TRUE(expect_same(
      "dagsched-workload 1\n" + record("job 0") + record("job 1"), kAllCuts));
  EXPECT_EQ(detail::read_workload_chunked(
                "dagsched-workload 1\n" + record("job 5") + record("job 2"),
                "<cut>", 1000)
                .jobs()
                .front()
                .release(),
            2.0);
}

TEST(WorkloadReaderChunks, LastRecordWithoutFinalNewline) {
  std::string text = "dagsched-workload 1\n" + record("job 0") +
                     record("job 1") + record("job 2");
  text.pop_back();
  EXPECT_TRUE(expect_same(text, kAllCuts));
  // Cut short inside the last record's `end`, and after its `job` keyword.
  EXPECT_FALSE(expect_same(text.substr(0, text.size() - 1), kAllCuts));
  EXPECT_FALSE(expect_same(
      "dagsched-workload 1\n" + record("job 0") + record("job 1") + "job",
      kAllCuts));
}

TEST(WorkloadReaderChunks, LargeInputsMatchTheSerialParse) {
  // Large enough that read_workload cuts it into pieces of its own choosing
  // on any machine with more than one hardware thread.
  Rng rng(26);
  std::string text = "dagsched-workload 1\n";
  for (int i = 0; text.size() < (std::size_t{768} << 10); ++i) {
    Lines lines = random_lines(rng);
    lines.erase(lines.begin());  // the header
    text += render(rng, lines);
    if (text.back() != '\n') text += '\n';
  }
  EXPECT_TRUE(expect_same(text));
  // A fault near the end is reported at its line in the whole file.
  const std::size_t last_job = text.rfind("job");
  std::string broken = text;
  broken.replace(last_job, 3, "jab");
  EXPECT_FALSE(expect_same(broken));
}

}  // namespace
}  // namespace dagsched
