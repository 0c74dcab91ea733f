// Repo benchmark harness: drives an in-process ApiService + HTTP front-end
// the way users do and prints one JSON result line. See perfbench/README.md.
//
//   perfbench --workload sdss-gen|flights-warm|sdss-interact --seed N
//             --seconds S --trace 0|1
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "util/json.h"
#include "util/logging.h"

namespace perfbench {

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (!ValidMetricName(name) || !ValidUnit(unit)) {
    Note("invalid metric name or unit: " + name + " [" + unit + "]");
    correct = false;
    return;
  }
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::Count(bool ok) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
  }
}

void Report::Note(const std::string& line) { std::cerr << "[perfbench] " << line << "\n"; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sdss-gen|flights-warm|sdss-interact "
               "--seed N --seconds S --trace 0|1\n");
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Report;
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else {
      Usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      Usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || opts.seconds < 1 || opts.seconds > 600) {
    Usage();
    return 2;
  }
  ifgen::SetLogLevel(ifgen::LogLevel::kError);

  Report rep;
  if (!perfbench::RunWorkload(opts, &rep)) return 1;
  if (rep.attempted < 1) {
    Report::Note("no operation was attempted");
    return 1;
  }

  std::string out = "{\"correct\":";
  out += rep.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : rep.metrics) {
    double v = vu.first;
    if (!std::isfinite(v)) {
      Report::Note("metric " + name + " is not finite; reported as 0");
      v = 0;
    }
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + ifgen::JsonDouble(v) + ",\"unit\":\"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
