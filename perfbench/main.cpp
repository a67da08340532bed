// perfbench: the benchmark binary. Usually started through run.py, which
// builds it; see WORKLOADS.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir D
//   perfbench --self-test
//
// Prints an environment record, then as its last stdout line the result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// One-minute load average.
double load_average() {
  double load[1] = {kNaN};
  return getloadavg(load, 1) == 1 ? load[0] : kNaN;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Machine and build facts for the record, with warnings for the two
/// defects that make numbers incomparable: a non-Release build, and a
/// machine busier than its core count.
std::string environment(double load_start, double load_end) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::vector<std::string> warnings;
  if (build_type != "Release") {
    warnings.push_back("build type is " + build_type + ", not Release");
  }
  for (double load : {load_start, load_end}) {
    if (load > nproc) {
      warnings.push_back("load average " + number(load) + " exceeds nproc " +
                         std::to_string(nproc));
    }
  }
  std::ostringstream out;
  out << "{\"env\":{\"nproc\":" << nproc
      << ",\"load_average_start\":" << number(load_start)
      << ",\"load_average_end\":" << number(load_end)
      << ",\"compiler\":" << quoted(std::string("g++ ") + __VERSION__)
      << ",\"build_type\":" << quoted(build_type)
      << ",\"cpu_model\":" << quoted(cpu_model()) << ",\"warnings\":[";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    out << (i ? "," : "") << quoted(warnings[i]);
    std::cerr << "perfbench: warning: " << warnings[i] << "\n";
  }
  out << "]}}";
  return out.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
               "       perfbench --self-test\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_self_tests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) return usage();
  // The benchmark writes only under its work directory: run logs, cache
  // locations and cache limits must not come in from the environment.
  unsetenv("MOELA_RUN_LOG");
  unsetenv("MOELA_CACHE_DIR");
  unsetenv("MOELA_CACHE_MAX_BYTES");
  std::filesystem::create_directories(args.work_dir);

  const double load_start = load_average();
  Outcome outcome;
  if (is_noc_workload(args.workload)) {
    outcome = run_noc_workload(args);
  } else if (args.workload == "serve-sweep") {
    outcome = run_serve_workload(args);
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  std::cout << environment(load_start, load_average()) << "\n";

  std::ostringstream metrics;
  for (const auto& m : outcome.metrics.all()) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " was not measured\n";
      return 1;
    }
    metrics << (metrics.tellp() > 0 ? "," : "") << quoted(m.name)
            << ":{\"value\":" << number(m.value)
            << ",\"unit\":" << quoted(m.unit) << "}";
  }
  std::cout << "{\"correct\":" << (outcome.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << outcome.attempted
            << ",\"failed\":" << outcome.failed << ",\"metrics\":{"
            << metrics.str() << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
