// MaintainerRegistry: round-trip construction of every registered name,
// alias/config-patch resolution, clean failure on unknown names, and
// self-registration through DYNMIS_REGISTER_MAINTAINER.

#include "dynmis/registry.h"

#include <algorithm>
#include <memory>

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/graph/generators.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

EdgeListGraph SmallGraph() {
  Rng rng(42);
  return ErdosRenyiGnm(30, 60, &rng);
}

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  const EdgeListGraph base = SmallGraph();
  const MaintainerRegistry& registry = MaintainerRegistry::Global();
  const std::vector<std::string> names = registry.ListNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    DynamicGraph g = base.ToDynamic();
    auto algo = registry.Create(name, &g);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_TRUE(registry.Has(name));
    algo->Initialize({});
    EXPECT_GT(algo->SolutionSize(), 0) << name;
    // The display name round-trips for every non-parameterized built-in;
    // the KSwap aliases spell out their parameter instead, and the
    // test-only registration below reuses DyOneSwap under another name.
    if (name.rfind("KSwap", 0) != 0 && name != "RegistryTestAlgo") {
      EXPECT_EQ(algo->Name(), name);
    }
  }
}

TEST(RegistryTest, KSwapAliasesEncodeK) {
  const EdgeListGraph base = SmallGraph();
  for (int k = 1; k <= 4; ++k) {
    DynamicGraph g = base.ToDynamic();
    auto algo = MaintainerRegistry::Global().Create(
        "KSwap" + std::to_string(k), &g);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->Name(), "KSwap(k=" + std::to_string(k) + ")");
  }
  // The canonical name reads k from the config.
  DynamicGraph g = base.ToDynamic();
  MaintainerConfig config("KSwap");
  config.k = 3;
  auto algo = MaintainerRegistry::Global().Create(config, &g);
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->Name(), "KSwap(k=3)");
}

TEST(RegistryTest, AliasesPatchTheConfig) {
  const EdgeListGraph base = SmallGraph();
  DynamicGraph g1 = base.ToDynamic();
  auto perturbed = MaintainerRegistry::Global().Create("DyOneSwap*", &g1);
  ASSERT_NE(perturbed, nullptr);
  EXPECT_EQ(perturbed->Name(), "DyOneSwap*");
  DynamicGraph g2 = base.ToDynamic();
  auto pinned = MaintainerRegistry::Global().Create("KSwap3", &g2);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->Name(), "KSwap(k=3)");
}

TEST(RegistryTest, UnknownNameFailsCleanly) {
  const EdgeListGraph base = SmallGraph();
  DynamicGraph g = base.ToDynamic();
  EXPECT_EQ(MaintainerRegistry::Global().Create("bogus", &g), nullptr);
  EXPECT_FALSE(MaintainerRegistry::Global().Has("bogus"));
  EXPECT_EQ(MaintainerRegistry::Global().Describe("bogus"), "");
}

TEST(RegistryTest, ListAlgorithmsCoversTheBuiltins) {
  const std::vector<std::string> algos =
      MaintainerRegistry::Global().ListAlgorithms();
  for (const char* expected : {"DGOneDIS", "DGTwoDIS", "DyARW", "DyOneSwap",
                               "DyTwoSwap", "KSwap", "Recompute"}) {
    EXPECT_NE(std::find(algos.begin(), algos.end(), expected), algos.end())
        << expected;
  }
  // Aliases are listed as accepted names but not as algorithms.
  const std::vector<std::string> names =
      MaintainerRegistry::Global().ListNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "DyTwoSwap*"), names.end());
  EXPECT_EQ(std::find(algos.begin(), algos.end(), "DyTwoSwap*"), algos.end());
}

TEST(RegistryTest, DuplicateAndDanglingRegistrationsAreRejected) {
  MaintainerRegistry& registry = MaintainerRegistry::Global();
  auto factory = [](DynamicGraph* g, const MaintainerConfig& config) {
    return std::make_unique<DySwap>(g, 1, config);
  };
  EXPECT_FALSE(registry.Register("DyOneSwap", factory));   // Name taken.
  EXPECT_FALSE(registry.Register("DyOneSwap*", factory));  // Alias taken.
  EXPECT_FALSE(registry.RegisterAlias("MyAlias", "NoSuchAlgo"));
  EXPECT_FALSE(registry.RegisterAlias("DyOneSwap", "DyTwoSwap"));
  EXPECT_FALSE(registry.Register("", factory));
}

// One-file self-registration: this is all an out-of-tree algorithm needs.
DYNMIS_REGISTER_MAINTAINER(
    "RegistryTestAlgo", "test-only registration",
    [](DynamicGraph* g, const MaintainerConfig& config) {
      return std::make_unique<DySwap>(g, 1, config);
    });

TEST(RegistryTest, MacroRegistrationIsVisible) {
  EXPECT_TRUE(MaintainerRegistry::Global().Has("RegistryTestAlgo"));
  EXPECT_EQ(MaintainerRegistry::Global().Describe("RegistryTestAlgo"),
            "test-only registration");
  const EdgeListGraph base = SmallGraph();
  DynamicGraph g = base.ToDynamic();
  auto algo = MaintainerRegistry::Global().Create("RegistryTestAlgo", &g);
  ASSERT_NE(algo, nullptr);
  algo->Initialize({});
  EXPECT_GT(algo->SolutionSize(), 0);
}

}  // namespace
}  // namespace dynmis
