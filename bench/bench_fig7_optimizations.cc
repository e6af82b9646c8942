// Fig 7(c): perturbation, a small time overhead buying the gap*
// improvements. The paper's Fig 7(a, b, d) compare eager tightness lists
// with lazy collection; the library keeps a single mode that scans like
// lazy collection and names owners in O(1) from per-vertex sums, so there
// is no pair left to compare (bench/EXPERIMENTS.md, "Lazy vs eager").

#include <cstdio>

#include "bench/bench_common.h"
#include "src/graph/datasets.h"
#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/util/table.h"

namespace dynmis {
namespace {

const std::vector<std::string> kFigGraphs = {"web-BerkStan", "hollywood",
                                             "com-lj", "soc-LiveJournal"};

void RunPerturbation(int updates) {
  std::printf("\n--- Fig 7(c): perturbation response-time overhead ---\n");
  TablePrinter table({"Graph", "DyOneSwap", "DyOneSwap*", "DyTwoSwap",
                      "DyTwoSwap*"});
  for (const std::string& name : kFigGraphs) {
    const DatasetSpec* spec = FindDataset(name);
    const EdgeListGraph base = GenerateDataset(*spec);
    ExperimentConfig config;
    config.initial = InitialSolution::kArw;
    config.arw_iterations = 200;
    config.num_updates = updates;
    config.stream.seed = spec->seed * 5 + 9;
    config.stream.bias = EndpointBias::kDegreeProportional;
    const ExperimentResult result = RunExperiment(
        base, {"DyOneSwap", "DyOneSwap*", "DyTwoSwap", "DyTwoSwap*"},
        config);
    table.AddRow({name, TimeCell(FindRun(result, "DyOneSwap")),
                  TimeCell(FindRun(result, "DyOneSwap*")),
                  TimeCell(FindRun(result, "DyTwoSwap")),
                  TimeCell(FindRun(result, "DyTwoSwap*"))});
  }
  table.Print(stdout);
}

void Run() {
  const int updates = bench::ScaledUpdates(20000);
  std::printf("=== Fig 7(c): perturbation ablation (%d updates) ===\n",
              updates);
  bench::PrintScaleNote();
  RunPerturbation(updates);
  std::printf(
      "\nExpected shape (paper): perturbation costs a little extra time.\n");
}

}  // namespace
}  // namespace dynmis

int main() {
  dynmis::Run();
  return 0;
}
