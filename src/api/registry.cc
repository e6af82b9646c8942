#include "dynmis/registry.h"

#include <algorithm>
#include <utility>

#include "src/baselines/dgdis.h"
#include "src/baselines/dyarw.h"
#include "src/baselines/recompute.h"
#include "src/core/dy_swap.h"
#include "src/core/k_swap.h"

namespace dynmis {
namespace {

// The built-ins live here (not in per-algorithm static initializers) so that
// linking the library archive always carries them: a registration object in
// an otherwise-unreferenced object file would be dropped by the linker.
// Out-of-tree algorithms in application binaries can rely on
// DYNMIS_REGISTER_MAINTAINER instead.
void RegisterBuiltins(MaintainerRegistry* registry) {
  registry->Register(
      "DyOneSwap",
      [](DynamicGraph* g, const MaintainerConfig& config) {
        return std::make_unique<DySwap>(g, /*k=*/1, config);
      },
      "paper Algorithm 2: 1-maximal set, O(m) worst-case per cascade");
  registry->Register(
      "DyTwoSwap",
      [](DynamicGraph* g, const MaintainerConfig& config) {
        return std::make_unique<DySwap>(g, /*k=*/2, config);
      },
      "paper Algorithm 3: 2-maximal set, the paper's best quality/speed");
  registry->Register(
      "KSwap",
      [](DynamicGraph* g, const MaintainerConfig& config) {
        return std::make_unique<KSwapMaintainer>(g, config.k, config);
      },
      "generic k-maximal framework (Algorithm 1); set MaintainerConfig::k");
  registry->Register(
      "DyARW",
      [](DynamicGraph* g, const MaintainerConfig&) {
        return std::make_unique<DyArw>(g);
      },
      "dynamic ARW local search baseline (sorted adjacency)");
  registry->Register(
      "DGOneDIS",
      [](DynamicGraph* g, const MaintainerConfig&) {
        return std::make_unique<DgDis>(g, 1);
      },
      "Zheng et al. ICDE'19 degree-one index baseline");
  registry->Register(
      "DGTwoDIS",
      [](DynamicGraph* g, const MaintainerConfig&) {
        return std::make_unique<DgDis>(g, 2);
      },
      "Zheng et al. ICDE'19 degree-two index baseline");
  registry->Register(
      "Recompute",
      [](DynamicGraph* g, const MaintainerConfig& config) {
        return std::make_unique<RecomputeGreedy>(g, config.recompute_every);
      },
      "recompute-from-scratch strawman; MaintainerConfig::recompute_every "
      "amortizes");

  // Paper table spellings for the optimization variants.
  registry->RegisterAlias(
      "DyOneSwap*", "DyOneSwap",
      [](MaintainerConfig* config) { config->perturb = true; },
      "DyOneSwap with perturbation (gap* columns)");
  registry->RegisterAlias(
      "DyTwoSwap*", "DyTwoSwap",
      [](MaintainerConfig* config) { config->perturb = true; },
      "DyTwoSwap with perturbation (gap* columns)");
  for (int k = 1; k <= 4; ++k) {
    registry->RegisterAlias(
        "KSwap" + std::to_string(k), "KSwap",
        [k](MaintainerConfig* config) { config->k = k; },
        "KSwap with k = " + std::to_string(k) + " (Fig 9 series)");
  }
}

}  // namespace

MaintainerRegistry& MaintainerRegistry::Global() {
  static MaintainerRegistry* registry = [] {
    auto* r = new MaintainerRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

bool MaintainerRegistry::Register(const std::string& name, Factory factory,
                                  const std::string& description) {
  if (name.empty() || factory == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (aliases_.count(name) != 0) return false;
  return algorithms_
      .emplace(name, AlgorithmEntry{std::move(factory), description})
      .second;
}

bool MaintainerRegistry::RegisterAlias(const std::string& alias,
                                       const std::string& canonical,
                                       ConfigPatch patch,
                                       const std::string& description) {
  if (alias.empty()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (algorithms_.count(alias) != 0 || algorithms_.count(canonical) == 0) {
    return false;
  }
  return aliases_
      .emplace(alias, AliasEntry{canonical, std::move(patch), description})
      .second;
}

std::unique_ptr<DynamicMisMaintainer> MaintainerRegistry::Create(
    const MaintainerConfig& config, DynamicGraph* g) const {
  // User-supplied callbacks (patch, factory) run outside the lock so they
  // may re-enter the registry without deadlocking.
  MaintainerConfig resolved = config;
  ConfigPatch patch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto alias = aliases_.find(resolved.algorithm);
    if (alias != aliases_.end()) {
      patch = alias->second.patch;
      resolved.algorithm = alias->second.canonical;
    }
  }
  if (patch) patch(&resolved);
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = algorithms_.find(resolved.algorithm);
    if (it == algorithms_.end()) return nullptr;
    factory = it->second.factory;
  }
  return factory(g, resolved);
}

bool MaintainerRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return algorithms_.count(name) != 0 || aliases_.count(name) != 0;
}

std::vector<std::string> MaintainerRegistry::ListAlgorithms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(algorithms_.size());
  for (const auto& [name, entry] : algorithms_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

std::vector<std::string> MaintainerRegistry::ListNames() const {
  std::vector<std::string> names = ListAlgorithms();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, entry] : aliases_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string MaintainerRegistry::Describe(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = algorithms_.find(name);
  if (it != algorithms_.end()) return it->second.description;
  auto alias = aliases_.find(name);
  if (alias != aliases_.end()) {
    return alias->second.description.empty()
               ? "alias for " + alias->second.canonical
               : alias->second.description;
  }
  return "";
}

namespace internal {

MaintainerRegistration::MaintainerRegistration(
    const char* name, MaintainerRegistry::Factory factory,
    const char* description) {
  MaintainerRegistry::Global().Register(name, std::move(factory), description);
}

}  // namespace internal
}  // namespace dynmis
