// End-to-end integration: all maintainers over long shared streams on
// realistic (power-law, dataset-registry) graphs, cross-validated against
// each other and against periodic exact solves; dataset-pipeline smoke
// tests; long-horizon stability (vertex id churn, graph emptying and
// regrowth).

#include <memory>
#include <vector>

#include "dynmis/engine.h"
#include "gtest/gtest.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/static_mis/exact.h"
#include "src/static_mis/initial_solution.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsMaximalIndependentSet;

// A long mixed stream over a power-law graph, processed in lock-step by all
// maintainers; every 100 steps the maintained sizes are compared against an
// exact solve of the current graph.
TEST(IntegrationTest, LockStepStreamOnPowerLawGraph) {
  Rng rng(1234);
  const EdgeListGraph base = ChungLuPowerLaw(400, 2.4, 6.0, &rng);
  const std::vector<MaintainerConfig> kinds = {
      "DGOneDIS", "DGTwoDIS", "DyARW", "DyOneSwap", "DyTwoSwap", "KSwap2"};

  std::vector<DynamicGraph> graphs;
  graphs.reserve(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) graphs.push_back(base.ToDynamic());
  std::vector<std::unique_ptr<DynamicMisMaintainer>> algos;
  for (size_t i = 0; i < kinds.size(); ++i) {
    algos.push_back(MaintainerRegistry::Global().Create(kinds[i], &graphs[i]));
    algos.back()->Initialize({});
  }

  UpdateStreamOptions stream;
  stream.seed = 77;
  stream.bias = EndpointBias::kDegreeProportional;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 1; step <= 600; ++step) {
    const GraphUpdate update = gen.Next(graphs[0]);
    for (auto& algo : algos) algo->Apply(update);
    // Graphs stay in lock step.
    for (size_t i = 1; i < graphs.size(); ++i) {
      ASSERT_EQ(graphs[0].NumEdges(), graphs[i].NumEdges()) << "step " << step;
    }
    if (step % 100 == 0) {
      const auto alpha = ExactAlpha(StaticGraph::FromDynamic(graphs[0]));
      ASSERT_TRUE(alpha.has_value());
      for (size_t i = 0; i < algos.size(); ++i) {
        ASSERT_TRUE(IsMaximalIndependentSet(graphs[i], algos[i]->Solution()))
            << algos[i]->Name() << " step " << step;
        EXPECT_LE(algos[i]->SolutionSize(), *alpha) << algos[i]->Name();
        // The swap-based maintainers stay close to optimal under churn; the
        // DG* baselines only guarantee maximality and are allowed to sag
        // (that degradation is the paper's core experimental finding).
        const bool swap_based = kinds[i].algorithm != "DGOneDIS" &&
                                kinds[i].algorithm != "DGTwoDIS";
        EXPECT_GE(algos[i]->SolutionSize() * 100,
                  *alpha * (swap_based ? 80 : 55))
            << algos[i]->Name() << " step " << step;
      }
      // The swap-based maintainers should be at least as good as the
      // maximality-only baselines on aggregate.
      EXPECT_GE(algos[4]->SolutionSize() + 2, algos[0]->SolutionSize());
    }
  }
}

// Drain the graph to empty and regrow it: exercises vertex-id recycling,
// empty-graph corner cases and capacity regrowth in one run.
TEST(IntegrationTest, DrainAndRegrow) {
  Rng rng(9);
  const EdgeListGraph base = ErdosRenyiGnm(60, 120, &rng);
  DynamicGraph g = base.ToDynamic();
  auto algo = MaintainerRegistry::Global().Create("DyTwoSwap", &g);
  algo->Initialize({});
  // Drain.
  while (g.NumVertices() > 0) {
    algo->DeleteVertex(g.AliveVertices().front());
    ASSERT_TRUE(IsMaximalIndependentSet(g, algo->Solution()));
  }
  EXPECT_EQ(algo->SolutionSize(), 0);
  // Regrow with random attachments.
  UpdateStreamOptions stream;
  stream.seed = 31;
  stream.edge_op_fraction = 0.3;  // Vertex-heavy.
  stream.insert_fraction = 0.9;
  UpdateStreamGenerator gen(stream);
  for (int step = 0; step < 300; ++step) {
    algo->Apply(gen.Next(g));
    ASSERT_TRUE(IsMaximalIndependentSet(g, algo->Solution())) << step;
  }
  EXPECT_GT(g.NumVertices(), 50);
  EXPECT_GT(algo->SolutionSize(), 0);
}

// The full dataset pipeline: generate every registry stand-in, run a short
// stream through MisEngine from a greedy start, sanity-check outputs.
TEST(IntegrationTest, DatasetPipelineSmoke) {
  int checked = 0;
  for (const auto* specs : {&EasyDatasets(), &HardDatasets()}) {
    for (const DatasetSpec& spec : *specs) {
      if (spec.n > 6000) continue;  // Keep the suite fast.
      const EdgeListGraph base = GenerateDataset(spec);
      UpdateStreamOptions stream;
      stream.seed = spec.seed;
      stream.bias = EndpointBias::kDegreeProportional;
      const std::vector<GraphUpdate> updates =
          MakeUpdateSequence(base, 300, stream);
      // Greedy needs no ARW rounds or exact budget.
      const std::vector<VertexId> initial = ComputeInitialSolution(
          base, InitialSolution::kGreedy, 0, 0, 0);
      int64_t final_size[2] = {0, 0};  // DyOneSwap, DyTwoSwap.
      for (int k = 0; k < 2; ++k) {
        auto engine =
            MisEngine::Create(base, {k == 0 ? "DyOneSwap" : "DyTwoSwap"});
        engine->Initialize(initial);
        for (const GraphUpdate& update : updates) engine->Apply(update);
        final_size[k] = engine->SolutionSize();
        EXPECT_GT(final_size[k], 0) << spec.name;
      }
      EXPECT_GE(final_size[1], final_size[0] - 2) << spec.name;
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
}

// Degree-biased streams preserve the heavy tail (the property the
// experiment design relies on).
TEST(IntegrationTest, DegreeBiasedChurnPreservesHeavyTail) {
  Rng rng(5);
  const EdgeListGraph base = ChungLuPowerLaw(3000, 2.3, 8.0, &rng);
  DynamicGraph g = base.ToDynamic();
  const int initial_max_degree = g.MaxDegree();
  UpdateStreamOptions stream;
  stream.seed = 11;
  stream.bias = EndpointBias::kDegreeProportional;
  UpdateStreamGenerator gen(stream, base);
  const auto updates = static_cast<int>(base.NumEdges() / 2);
  for (int i = 0; i < updates; ++i) ApplyUpdate(&g, gen.Next(g));
  // Heavy churn must not flatten the hub structure: ER-ization would pull
  // the max degree down toward the average (~8); the biased stream keeps a
  // pronounced hub.
  EXPECT_GT(g.MaxDegree(), initial_max_degree / 3);
  EXPECT_GT(g.MaxDegree(), 8 * 4);
}

}  // namespace
}  // namespace dynmis
