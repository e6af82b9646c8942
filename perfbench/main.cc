// perfbench: runs one benchmark workload and prints its result as one JSON
// line (end-to-end metrics, per-layer metrics when traced, diagnostics).
// run.py builds this binary, runs it and prints the final result line.
//
//   perfbench --workload massive-churn|window-sharded
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--tiny] [--corrupt]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--corrupt") {
      options.corrupt = true;
    } else if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return 2;
    } else {
      ++i;
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::strtoull(value, nullptr, 10);
      } else if (flag == "--seconds") {
        options.seconds = std::atof(value);
      } else if (flag == "--trace") {
        options.trace = std::strcmp(value, "0") != 0;
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
        return 2;
      }
    }
  }
  if (options.workdir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --workdir and --seconds > 0 required\n");
    return 2;
  }
  perfbench::MakeDirs(options.workdir);

  perfbench::Report report;
  if (options.workload == "massive-churn") {
    report = perfbench::RunMassiveChurn(options);
  } else if (options.workload == "window-sharded") {
    report = perfbench::RunWindowSharded(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
