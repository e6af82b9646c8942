// MaintainerRegistry: the string-keyed factory through which every dynamic
// MIS maintainer is constructed. Replaces the old closed AlgoKind enum (one
// switch in the experiment driver, a second name table in the CLI): adding
// an algorithm is now a single Register() call — or the
// DYNMIS_REGISTER_MAINTAINER macro in the algorithm's own .cc file — and it
// immediately shows up in bench_driver, the CLI's --algo flag and
// `--algo help` listing, and the registry round-trip tests.
//
// Names come in two flavours:
//  * canonical algorithms ("DyOneSwap", "KSwap", ...): a factory that reads
//    its parameters from MaintainerConfig;
//  * aliases ("DyTwoSwap*", "KSwap3", ...): a canonical name plus a config
//    patch, so the paper's table spellings keep working everywhere strings
//    are accepted.
//
// The process-wide instance is MaintainerRegistry::Global(), pre-populated
// with the library's built-ins. Lookup misses return nullptr / false — the
// library does not throw (see src/util/check.h).

#ifndef DYNMIS_INCLUDE_DYNMIS_REGISTRY_H_
#define DYNMIS_INCLUDE_DYNMIS_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"

namespace dynmis {

class MaintainerRegistry {
 public:
  // Builds a maintainer over `g` (which must outlive it). The config carries
  // all parameters; `config.algorithm` has already been resolved.
  using Factory = std::function<std::unique_ptr<DynamicMisMaintainer>(
      DynamicGraph* g, const MaintainerConfig& config)>;
  // Rewrites the config an alias resolves with (e.g. sets perturb or k).
  using ConfigPatch = std::function<void(MaintainerConfig*)>;

  // The process-wide registry, pre-populated with the built-in algorithms.
  static MaintainerRegistry& Global();

  // Registers a canonical algorithm. Returns false (and leaves the existing
  // entry) when the name is already taken.
  bool Register(const std::string& name, Factory factory,
                const std::string& description = "");

  // Registers `alias` to resolve to `canonical` with `patch` applied to the
  // caller's config first. Returns false if the alias name is taken or the
  // canonical name is unknown.
  bool RegisterAlias(const std::string& alias, const std::string& canonical,
                     ConfigPatch patch = nullptr,
                     const std::string& description = "");

  // Constructs the maintainer named by `config.algorithm` over `g`, or
  // returns nullptr when the name is not registered. MaintainerConfig
  // converts implicitly from a name string, so Create("DyTwoSwap*", &g)
  // works as-is.
  std::unique_ptr<DynamicMisMaintainer> Create(
      const MaintainerConfig& config, DynamicGraph* g) const;

  // True when `name` is a registered algorithm or alias.
  bool Has(const std::string& name) const;

  // Canonical algorithm names, sorted.
  std::vector<std::string> ListAlgorithms() const;

  // All accepted names (canonical + aliases), sorted.
  std::vector<std::string> ListNames() const;

  // One-line description of `name` (empty for unknown names). For aliases,
  // falls back to "alias for <canonical>" when no description was given.
  std::string Describe(const std::string& name) const;

 private:
  struct AlgorithmEntry {
    Factory factory;
    std::string description;
  };
  struct AliasEntry {
    std::string canonical;
    ConfigPatch patch;
    std::string description;
  };

  mutable std::mutex mutex_;
  std::map<std::string, AlgorithmEntry> algorithms_;
  std::map<std::string, AliasEntry> aliases_;
};

namespace internal {

// Static-initializer hook behind DYNMIS_REGISTER_MAINTAINER.
struct MaintainerRegistration {
  MaintainerRegistration(const char* name, MaintainerRegistry::Factory factory,
                         const char* description = "");
};

}  // namespace internal

#define DYNMIS_REGISTRY_CONCAT_INNER(a, b) a##b
#define DYNMIS_REGISTRY_CONCAT(a, b) DYNMIS_REGISTRY_CONCAT_INNER(a, b)

// Registers a maintainer with the global registry from a single translation
// unit:
//
//   DYNMIS_REGISTER_MAINTAINER("MyAlgo", "one-line description",
//       [](DynamicGraph* g, const MaintainerConfig& config) {
//         return std::make_unique<MyAlgo>(g, config);
//       });
#define DYNMIS_REGISTER_MAINTAINER(name, description, factory)      \
  static const ::dynmis::internal::MaintainerRegistration           \
      DYNMIS_REGISTRY_CONCAT(dynmis_maintainer_registration_,       \
                             __COUNTER__)(name, factory, description)

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_REGISTRY_H_
