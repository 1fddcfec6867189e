// Shared helpers for the experiment binaries (bench/).
//
// Every binary regenerates one table/figure of EXPERIMENTS.md and prints a
// paper-style text table plus (optionally) a CSV next to the binary.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "core/deadline_scheduler.h"
#include "exp/runner.h"
#include "util/arg_parse.h"
#include "util/table.h"
#include "workload/scenarios.h"

namespace dagsched::bench {

/// Factory for a scheduler by its CLI name (exp/runner.h); `eps` only
/// matters for the paper's schedulers (s, s-wc, s-noadm, profit).
inline SchedulerFactory named(std::string name, double eps = 0.5) {
  return [name = std::move(name), eps] {
    return make_named_scheduler(name, eps);
  };
}

/// Factory for scheduler S with ablation options the CLI names do not
/// cover.
inline SchedulerFactory paper_s_options(DeadlineSchedulerOptions options) {
  return [options] { return std::make_unique<DeadlineScheduler>(options); };
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Optional CSV export for experiment binaries: pass `--csv DIR` and every
/// table is also written to DIR/<name>.csv (for downstream plotting).
class CsvSink {
 public:
  CsvSink(int argc, char** argv) {
    ArgParser args(argc, argv);
    directory_ = args.get_string("csv", "");
    args.finish();
  }

  /// Prints the table to stdout and, when --csv was given, saves it.
  void emit(const std::string& name, const TextTable& table) const {
    table.print(std::cout);
    if (directory_.empty()) return;
    const std::string path = directory_ + "/" + name + ".csv";
    table.write_csv(path);
    std::cout << "[csv] wrote " << path << "\n";
  }

 private:
  std::string directory_;
};

}  // namespace dagsched::bench
