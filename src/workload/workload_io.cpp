#include "workload/workload_io.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "dag/builder.h"
#include "util/file_bytes.h"
#include "util/parse_error.h"

namespace dagsched {

namespace {

constexpr const char* kMagic = "dagsched-workload";
constexpr int kVersion = 1;

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool ends_token(char c) { return is_ws(c) || c == '\n'; }

/// The start of the line after the one that holds `at`, or `end`.
const char* after_line(const char* at, const char* end) {
  const auto* newline = static_cast<const char*>(
      std::memchr(at, '\n', static_cast<std::size_t>(end - at)));
  return newline == nullptr ? end : newline + 1;
}

/// One cursor over a workload buffer, or over a piece of one that starts at
/// a line (its line numbers then count from the piece).  A line starts
/// where the cursor stops: blank lines and '#' comments are skipped there,
/// a token ends at whitespace or '\n', and expect_end() consumes the '\n'.
/// Each token is read where it lies and each number is parsed in the pass
/// that checks it; strings are built only for diagnostics.  Every line
/// counts toward lineno(), so diagnostics keep the positions a reader sees
/// in an editor.
class Cursor {
 public:
  Cursor(std::string_view bytes, const std::string& source)
      : pos_(bytes.data()),
        end_(bytes.data() + bytes.size()),
        line_(pos_),
        source_(source) {}

  /// Moves to the next line that is neither blank nor a '#' comment; false
  /// at end of input.
  bool next_line() {
    while (pos_ != end_) {
      line_ = pos_;
      ++lineno_;
      skip_ws();
      if (pos_ != end_ && *pos_ != '\n' && *pos_ != '#') return true;
      pos_ = line_end();
      if (pos_ != end_) ++pos_;
    }
    return false;
  }

  /// Moves to the next line or fails with a diagnostic just past the input.
  void need_line(const char* what) {
    if (!next_line()) {
      throw ParseError(source_, lineno_ + 1, 1, std::string("missing ") + what);
    }
  }

  /// 1-based number of the line the cursor last moved to; at end of input,
  /// the number of lines.
  std::size_t lineno() const { return lineno_; }

  /// The bytes from the cursor to the end of the input.
  std::string_view rest() const {
    return {pos_, static_cast<std::size_t>(end_ - pos_)};
  }

  [[noreturn]] void fail(std::size_t column, const std::string& what) const {
    throw ParseError(source_, lineno_, column, what);
  }

  /// Column (1-based) where the next token would start.
  std::size_t next_column() {
    skip_ws();
    return column_of(pos_);
  }

  /// Number of bytes left on the line.
  std::size_t remaining() const {
    return static_cast<std::size_t>(line_end() - pos_);
  }

  std::string_view token(std::string_view what) {
    skip_ws();
    const char* const start = pos_;
    while (pos_ != end_ && !ends_token(*pos_)) ++pos_;
    if (pos_ == start) fail(column_of(start), "missing " + std::string(what));
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  /// Parses a finite double with std::stod's grammar; rejects NaN/inf and
  /// trailing junk.
  double number(std::string_view what) {
    skip_ws();
    // from_chars agrees with stod on every token it consumes whole to a
    // finite value above the smallest normal double.  Everything else --
    // zero, values that underflow (stod's ERANGE also covers tokens that
    // round up to exactly the smallest normal), inf/nan, '+', hex floats,
    // a leading \v or \f -- goes to stod, which keeps the accepted set and
    // the diagnostics exactly as they were.
    double value = 0.0;
    const auto [stop, ec] = std::from_chars(pos_, end_, value);
    if (ec == std::errc() && (stop == end_ || ends_token(*stop)) &&
        std::isfinite(value) &&
        std::fabs(value) > std::numeric_limits<double>::min()) {
      pos_ = stop;
      return value;
    }
    return stod_number(what);
  }

  /// Parses a non-negative integer (node ids, counts).
  std::size_t index(std::string_view what) {
    skip_ws();
    const char* const start = pos_;
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    std::size_t value = 0;
    bool overflow = false;
    for (; pos_ != end_; ++pos_) {
      const auto digit = static_cast<std::size_t>(
          static_cast<unsigned char>(*pos_) - static_cast<unsigned char>('0'));
      if (digit > 9) break;
      if (value > kMax / 10 || (value == kMax / 10 && digit > kMax % 10)) {
        overflow = true;
      }
      value = value * 10 + digit;
    }
    if (pos_ == start || overflow || (pos_ != end_ && !ends_token(*pos_))) {
      fail_index(start, what);
    }
    return value;
  }

  /// Requires the rest of the line to be blank and moves past its '\n'.
  void expect_end() {
    skip_ws();
    if (pos_ != end_ && *pos_ != '\n') {
      fail(column_of(pos_), "trailing junk '" + std::string(pos_, line_end()) +
                                "'");
    }
    if (pos_ != end_) ++pos_;
  }

 private:
  void skip_ws() {
    while (pos_ != end_ && is_ws(*pos_)) ++pos_;
  }

  std::size_t column_of(const char* at) const {
    return static_cast<std::size_t>(at - line_) + 1;
  }

  /// Where the current line ends: its '\n', or the end of the input.
  const char* line_end() const {
    if (pos_ == end_) return end_;
    const auto* newline = static_cast<const char*>(
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_)));
    return newline == nullptr ? end_ : newline;
  }

  /// The number at the cursor that from_chars did not take, read the way
  /// std::stod reads it.
  double stod_number(std::string_view what) {
    const std::size_t column = next_column();
    const std::string tok(token(what));
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

  /// Diagnoses the index token at `start`: a missing token, then a
  /// non-digit anywhere in it, and only then an overflow.
  [[noreturn]] void fail_index(const char* start, std::string_view what) {
    pos_ = start;
    const std::string tok(token(what));
    const std::string name(what);
    if (tok.find_first_not_of("0123456789") != std::string::npos) {
      fail(column_of(start),
           "bad " + name + " '" + tok + "' (expected a non-negative integer)");
    }
    fail(column_of(start), name + " '" + tok + "' out of range");
  }

  const char* pos_;
  const char* end_;
  const char* line_;  // start of the current line
  std::size_t lineno_ = 0;
  const std::string& source_;
};

/// Writes the parameters `fn` was built from, verbatim: read_profit()
/// rebuilds an equal ProfitFn, and writing that again gives the same bytes.
void write_profit(std::ostream& os, const ProfitFn& fn) {
  os << "profit ";
  switch (fn.kind()) {
    case ProfitFn::Kind::kStep:
      os << "step " << fn.peak() << ' ' << fn.deadline() << '\n';
      return;
    case ProfitFn::Kind::kPlateauLinear:
      os << "plateau_linear " << fn.peak() << ' ' << fn.plateau_end() << ' '
         << fn.support_end() << '\n';
      return;
    case ProfitFn::Kind::kPlateauExp:
      os << "plateau_exp " << fn.peak() << ' ' << fn.plateau_end() << ' '
         << fn.rate() << '\n';
      return;
    case ProfitFn::Kind::kPiecewise:
      os << "piecewise " << fn.levels().size();
      for (const auto& [end, value] : fn.levels()) {
        os << ' ' << end << ' ' << value;
      }
      os << '\n';
      return;
  }
}

ProfitFn read_profit(Cursor& in) {
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

/// Reads the "dagsched-workload 1" line.
void read_header(Cursor& in, const std::string& source) {
  if (!in.next_line()) throw ParseError(source, 1, 1, "empty input");
  const std::size_t magic_col = in.next_column();
  const std::string_view magic = in.token("header magic");
  if (magic != kMagic) {
    in.fail(magic_col, "bad header (expected '" + std::string(kMagic) + " " +
                           std::to_string(kVersion) + "')");
  }
  const std::size_t version_col = in.next_column();
  const std::size_t version = in.index("format version");
  if (version != static_cast<std::size_t>(kVersion)) {
    in.fail(version_col, "unsupported version " + std::to_string(version) +
                             " (expected " + std::to_string(kVersion) + ")");
  }
  in.expect_end();
}

/// Parses job records from the cursor's line to the end of its input and
/// appends them to `jobs`.  Each call has its own scratch, so calls on
/// disjoint cursors may run concurrently.
void parse_records(Cursor& in, std::vector<Job>& jobs) {
  // One works/edges scratch for the whole cursor, reused by every job.
  std::vector<Work> works;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<NodeId> pending;
  while (in.next_line()) {
    const std::size_t kw_col = in.next_column();
    const std::string_view keyword = in.token("job keyword");
    if (keyword != "job") {
      in.fail(kw_col, "expected 'job', got '" + std::string(keyword) + "'");
    }
    const std::size_t release_col = in.next_column();
    const Time release = in.number("release time");
    if (release < 0.0) in.fail(release_col, "release time must be >= 0");
    in.expect_end();

    in.need_line("profit line");
    ProfitFn profit = read_profit(in);

    in.need_line("nodes line");
    const std::size_t nodes_kw_col = in.next_column();
    const std::string_view nodes_kw = in.token("nodes keyword");
    if (nodes_kw != "nodes") {
      in.fail(nodes_kw_col,
              "expected 'nodes', got '" + std::string(nodes_kw) + "'");
    }
    const std::size_t count_col = in.next_column();
    const std::size_t num_nodes = in.index("node count");
    if (num_nodes == 0) in.fail(count_col, "node count must be >= 1");
    in.expect_end();

    // The scratch vectors grow only as tokens parse, never from a declared
    // count alone: a corrupt count must fail as missing input, not as an
    // allocation.
    in.need_line("node works line");
    works.clear();
    for (std::size_t i = 0; i < num_nodes; ++i) {
      const std::size_t work_col = in.next_column();
      const Work work = in.number("node work");
      if (!(work > 0.0)) in.fail(work_col, "node work must be positive");
      works.push_back(work);
    }
    in.expect_end();

    in.need_line("edges line");
    const std::size_t edges_kw_col = in.next_column();
    const std::string_view edges_kw = in.token("edges keyword");
    if (edges_kw != "edges") {
      in.fail(edges_kw_col,
              "expected 'edges', got '" + std::string(edges_kw) + "'");
    }
    const std::size_t num_edges = in.index("edge count");
    in.expect_end();
    edges.clear();
    for (std::size_t e = 0; e < num_edges; ++e) {
      in.need_line("edge line");
      const std::size_t from_col = in.next_column();
      const std::size_t from = in.index("edge source");
      const std::size_t to_col = in.next_column();
      const std::size_t to = in.index("edge target");
      if (from >= num_nodes) {
        in.fail(from_col, "edge source " + std::to_string(from) +
                              " out of range (nodes: " +
                              std::to_string(num_nodes) + ")");
      }
      if (to >= num_nodes) {
        in.fail(to_col, "edge target " + std::to_string(to) +
                            " out of range (nodes: " +
                            std::to_string(num_nodes) + ")");
      }
      if (from == to) in.fail(from_col, "self-edge");
      in.expect_end();
      edges.emplace_back(static_cast<NodeId>(from), static_cast<NodeId>(to));
    }

    in.need_line("'end'");
    const std::size_t end_col = in.next_column();
    const std::string_view end_kw = in.token("end keyword");
    if (end_kw != "end") {
      in.fail(end_col, "expected 'end', got '" + std::string(end_kw) + "'");
    }
    in.expect_end();

    // pack_dag() rejects cycles and duplicate edges; wrap its exception so
    // the caller still gets a positioned diagnostic.
    try {
      jobs.emplace_back(
          std::make_shared<const Dag>(pack_dag(works, edges, pending)),
          release, std::move(profit));
    } catch (const std::invalid_argument& err) {
      in.fail(1, std::string("invalid DAG: ") + err.what());
    }
  }
}

/// True if the line that starts at `at` has `job` as its first token.  In a
/// valid file only a record header does: every other record line starts
/// with `profit`, `nodes`, a number, `edges`, an index or `end`.
bool starts_job_line(const char* at, const char* end) {
  while (at != end && is_ws(*at)) ++at;
  return end - at >= 3 && std::memcmp(at, "job", 3) == 0 &&
         (end - at == 3 || ends_token(at[3]));
}

/// Cuts `body` into at most `chunks` pieces, each after the first starting
/// at a line whose first token is `job`.  Pieces hold whole records of a
/// valid file, so they parse if and only if `body` does, to the same jobs.
std::vector<std::string_view> cut_at_jobs(std::string_view body,
                                          std::size_t chunks) {
  const char* const end = body.data() + body.size();
  const char* from = body.data();
  std::vector<std::string_view> pieces;
  for (std::size_t i = 1; i < chunks; ++i) {
    const char* at = std::max(from, body.data() + body.size() * i / chunks);
    if (at != body.data() && at[-1] != '\n') at = after_line(at, end);
    while (at != end && !starts_job_line(at, end)) at = after_line(at, end);
    if (at == end) break;
    if (at == from) continue;
    pieces.emplace_back(from, static_cast<std::size_t>(at - from));
    from = at;
  }
  pieces.emplace_back(from, static_cast<std::size_t>(end - from));
  return pieces;
}

}  // namespace

void write_workload(std::ostream& os, const JobSet& jobs) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kMagic << ' ' << kVersion << '\n';
  os << "# " << jobs.size() << " jobs\n";
  for (const Job& job : jobs.jobs()) {
    os << "job " << job.release() << '\n';
    write_profit(os, job.profit());
    const Dag& dag = job.dag();
    os << "nodes " << dag.num_nodes() << '\n';
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      os << (v == 0 ? "" : " ") << dag.node_work(v);
    }
    os << '\n';
    os << "edges " << dag.num_edges() << '\n';
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      for (const NodeId succ : dag.successors(v)) {
        os << v << ' ' << succ << '\n';
      }
    }
    os << "end\n";
  }
}

namespace detail {

JobSet read_workload_chunked(std::string_view bytes, const std::string& source,
                             std::size_t chunks) {
  Cursor in(bytes, source);
  read_header(in, source);
  const std::vector<std::string_view> pieces = cut_at_jobs(in.rest(), chunks);
  if (pieces.size() > 1) {
    std::vector<std::vector<Job>> parts(pieces.size());
    std::atomic<bool> failed{false};
    const auto parse = [&](std::size_t i) {
      try {
        Cursor piece(pieces[i], source);
        parse_records(piece, parts[i]);
      } catch (...) {
        failed = true;
      }
    };
    {  // Leaving this scope joins the workers.
      std::vector<std::jthread> workers;
      workers.reserve(pieces.size() - 1);
      for (std::size_t i = 1; i < pieces.size(); ++i) {
        try {
          workers.emplace_back(parse, i);
        } catch (const std::system_error&) {
          failed = true;
        }
      }
      parse(0);
    }
    if (!failed) {
      std::size_t total = 0;
      for (const auto& part : parts) total += part.size();
      std::vector<Job> jobs;
      jobs.reserve(total);
      for (auto& part : parts) {
        std::move(part.begin(), part.end(), std::back_inserter(jobs));
        std::vector<Job>().swap(part);
      }
      return JobSet(std::move(jobs));
    }
  }
  // One piece, or a piece failed: parse the records serially from the
  // header on, so every diagnostic carries its place in the whole file.
  std::vector<Job> jobs;
  parse_records(in, jobs);
  return JobSet(std::move(jobs));
}

}  // namespace detail

JobSet read_workload(std::string_view bytes, const std::string& source) {
  // One piece per kPieceBytes begun, at most one per hardware thread.
  constexpr std::size_t kPieceBytes = std::size_t{256} << 10;
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  return detail::read_workload_chunked(
      bytes, source,
      std::min(threads, (bytes.size() + kPieceBytes - 1) / kPieceBytes));
}

JobSet read_workload(std::istream& is, const std::string& source) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return read_workload(std::move(buffer).str(), source);
}

void save_workload(const std::string& path, const JobSet& jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_workload(out, jobs);
}

JobSet load_workload(const std::string& path) {
  const FileBytes bytes(path);
  return read_workload(bytes.view(), path);
}

}  // namespace dagsched
