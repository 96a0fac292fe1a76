/// \file main.cpp
/// \brief Entry point of the RMRLS benchmark binary:
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--workdir DIR] [--spans FILE]
///
/// Prints diagnostics on stderr and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. Exits 0 only for
/// a correct run; 1 for a run that produced a wrong circuit or an invalid
/// measurement (the JSON line is still printed), 2 for usage errors.

#include <charconv>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

constexpr const char* kUsage =
    "usage: perfbench --workload paper-cold|deep-search|orbit-batch|"
    "serve-mix --seed N --seconds S --trace 0|1 [--workdir DIR] "
    "[--spans FILE]\n";

template <class T>
bool parse_number(std::string_view text, T& out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

bool parse_args(int argc, char** argv, RunConfig& config) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, config.seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_number(value, config.seconds) || config.seconds < 1) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!parse_args(argc, argv, config)) {
    std::cerr << kUsage;
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && hw < 4) config.threads = static_cast<int>(hw);

  Report (*run)(const RunConfig&) = nullptr;
  if (config.workload == "paper-cold") run = perfbench::run_paper_cold;
  if (config.workload == "deep-search") run = perfbench::run_deep_search;
  if (config.workload == "orbit-batch") run = perfbench::run_orbit_batch;
  if (config.workload == "serve-mix") run = perfbench::run_serve_mix;
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload '" << config.workload << "'\n"
              << kUsage;
    return 2;
  }
  try {
    const Report report = run(config);
    for (const std::string& e : report.errors()) {
      std::cerr << "perfbench: " << e << "\n";
    }
    std::cout << report.json() << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }
}
