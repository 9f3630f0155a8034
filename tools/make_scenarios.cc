// make_scenarios — deterministic generator for the checked-in scenario
// library under traces/.
//
//   make_scenarios --out DIR    regenerate every scenario into DIR
//   make_scenarios --list       print the scenario names
//
// Generation is a pure function of (scenario, --count, --seed): the same
// invocation yields byte-identical files on any platform. scripts/goldens.py
// regenerates the library with the defaults and compares the directory with
// traces/ file by file, so a generator change that alters the traces must
// land together with the regenerated files (and shows up in the diff as
// trace-file churn).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "src/sim/json_writer.h"
#include "src/trace/scenarios.h"

namespace {

using namespace mstk;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out DIR [--count N] [--seed S]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  trace::ScenarioConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage(argv[0]));
      return argv[++i];
    };
    if (std::strcmp(arg, "--list") == 0) {
      for (const std::string& name : trace::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_dir = next();
    } else if (std::strcmp(arg, "--count") == 0) {
      if (!ParseWhole(next(), 1, INT64_MAX, &config.request_count)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0) {
      int64_t seed = 0;
      if (!ParseWhole(next(), 0, INT64_MAX, &seed)) return Usage(argv[0]);
      config.seed = static_cast<uint64_t>(seed);
    } else {
      return Usage(argv[0]);
    }
  }
  if (out_dir.empty()) {
    return Usage(argv[0]);
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  for (const std::string& name : trace::ScenarioNames()) {
    const std::string bytes = trace::ScenarioTraceBytes(name, config);
    const std::string path = out_dir + "/" + name + ".trace";
    if (!WriteFileOrReport(path, bytes)) {
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  }
  return 0;
}
