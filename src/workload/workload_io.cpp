#include "workload/workload_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "dag/builder.h"
#include "util/file_bytes.h"
#include "util/parse_error.h"

namespace dagsched {

namespace {

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

JobSet read_workload(std::string_view bytes, const std::string& source) {
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
  return read_workload(read_file_bytes(path), path);
}

}  // namespace dagsched
