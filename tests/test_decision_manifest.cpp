// Golden decision manifest: every serial event log of the decision-parity
// matrix (scripts/decision_parity.sh -- scheduler x engine x fault mode on
// the thm2 seed 7, tight seed 11, profit seed 3, overloaded profit seed 5 and
// overloaded thm2 seed 13 instances, plus the work-overrun cells) must hash
// to the FNV-1a64 digest committed in tests/golden/decision_manifest.txt.
//
// The parity script's emit/diff modes compare a change against itself; this
// pins the decisions to an absolute reference, so a silent behaviour change
// cannot pass.  A deliberate decision change must update the manifest in the
// same change: on any mismatch the test writes the manifest it computed to
// decision_manifest.actual.txt in its working directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/sweep/sweep.h"
#include "sim/kernel/engine_factory.h"
#include "util/wire.h"
#include "workload/scenarios.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

// DAGSCHED_MANIFEST is injected by tests/CMakeLists.txt.
const std::string kManifestPath = DAGSCHED_MANIFEST;

/// Generates one parity instance exactly as `dagsched generate` does and
/// round-trips it through the .wl text format, as the script's runs read it
/// back from disk.
JobSet parity_instance(const WorkloadConfig& base, double horizon,
                       std::uint64_t seed) {
  WorkloadConfig config = base;
  config.horizon = horizon;
  Rng rng(seed);
  std::stringstream text;
  write_workload(text, generate_workload(rng, config));
  return read_workload(text);
}

std::map<std::string, std::string> read_manifest(const std::string& path) {
  std::map<std::string, std::string> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    std::string digest;
    fields >> id >> digest;
    digests[id] = digest;
  }
  return digests;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(DecisionManifest, SerialEventLogsMatchCommittedDigests) {
  const std::map<std::string, JobSet> instances = {
      {"thm2", parity_instance(scenario_thm2(0.5, 0.9, 16), 400.0, 7)},
      {"tight", parity_instance(scenario_tight(1.4, 8), 300.0, 11)},
      {"profit",
       parity_instance(scenario_profit(0.5, 0.8, 16,
                                       ProfitPolicy::Shape::kPlateauLinear),
                       200.0, 3)},
      {"profit-over",
       parity_instance(scenario_profit(0.5, 2.5, 16,
                                       ProfitPolicy::Shape::kPlateauLinear),
                       200.0, 5)},
      {"thm2-over", parity_instance(scenario_thm2(0.5, 4.0, 16), 300.0, 13)},
  };

  // decision_parity.sh's combos(): the profit scheduler is slot-only.
  std::vector<std::tuple<std::string, EngineKind, std::string>> combos;
  for (const char* name : {"s", "s-wc", "s-noadm", "edf", "llf", "hdf", "fcfs",
                           "federated", "equi", "equi-profit"}) {
    combos.emplace_back(name, EngineKind::kEvent, "thm2");
    combos.emplace_back(name, EngineKind::kSlot, "thm2");
    combos.emplace_back(name, EngineKind::kEvent, "tight");
  }
  combos.emplace_back("profit", EngineKind::kSlot, "profit");
  combos.emplace_back("profit", EngineKind::kSlot, "profit-over");
  // The overloaded thm2 instance exercises S's P drain (many promotions and
  // window-full deferrals).
  for (const char* name : {"s", "s-wc", "s-noadm"}) {
    combos.emplace_back(name, EngineKind::kEvent, "thm2-over");
    combos.emplace_back(name, EngineKind::kSlot, "thm2-over");
  }

  // decision_parity.sh's fault_spec().
  const std::string churn_zero =
      "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero";
  const std::pair<std::string, std::string> fault_modes[] = {
      {"none", ""},
      {"churn-resume",
       "mtbf=60,mttr=20,horizon=300,seed=5,min-procs=4,restart=resume"},
      {"churn-zero", churn_zero},
  };
  const std::string overrun =
      churn_zero + ",overrun-prob=0.3,overrun-factor=2";

  std::vector<SweepCellSpec> cells;
  auto add_cell = [&](const std::string& scheduler, EngineKind engine,
                      const std::string& workload, const std::string& label,
                      const std::string& spec) {
    SweepCellSpec cell;
    cell.id = scheduler + "_" + engine_kind_name(engine) + "_" + workload +
              "_" + label;
    cell.workload_label = workload;
    cell.jobs = &instances.at(workload);
    cell.scheduler = scheduler;
    cell.engine = engine;
    cell.m = 16;
    cell.fault_label = label;
    cell.fault_spec = spec;
    cells.push_back(std::move(cell));
  };
  for (const auto& [scheduler, engine, workload] : combos) {
    for (const auto& [label, spec] : fault_modes) {
      add_cell(scheduler, engine, workload, label, spec);
    }
  }
  // decision_parity.sh's overrun cells: some jobs arrive with node works
  // scaled past their declared values.
  for (const char* name : {"s", "edf", "llf", "equi"}) {
    add_cell(name, EngineKind::kEvent, "thm2-over", "overrun", overrun);
    add_cell(name, EngineKind::kSlot, "thm2-over", "overrun", overrun);
  }
  add_cell("profit", EngineKind::kSlot, "profit-over", "overrun", overrun);
  ASSERT_EQ(cells.size(), 123u);

  SweepOptions options;
  options.threads = 2;
  options.capture_events = true;
  const SweepResult sweep = run_sweep(std::move(cells), options);

  const std::map<std::string, std::string> expected =
      read_manifest(kManifestPath);
  std::ostringstream actual;
  actual << "# FNV-1a64 of each serial decision-parity event log; see "
            "tests/test_decision_manifest.cpp\n";
  bool mismatch = expected.size() != sweep.cells.size();
  EXPECT_EQ(expected.size(), sweep.cells.size())
      << "manifest entries in " << kManifestPath;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const std::string& id = sweep.cells[i].id;
    const SweepCellResult& result = sweep.results[i];
    ASSERT_TRUE(result.ok()) << id << ": " << result.error;
    ASSERT_FALSE(result.events_jsonl.empty()) << id;
    const std::string digest = hex64(fnv1a64(result.events_jsonl));
    actual << id << ' ' << digest << '\n';
    const auto it = expected.find(id);
    if (it == expected.end() || it->second != digest) {
      mismatch = true;
      ADD_FAILURE() << id << ": digest " << digest << ", manifest "
                    << (it == expected.end() ? "<missing>" : it->second);
    }
  }
  if (mismatch) {
    std::ofstream("decision_manifest.actual.txt") << actual.str();
  }
}

}  // namespace
}  // namespace dagsched
