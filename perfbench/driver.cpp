// Entry point of the benchmark driver.  Usage (run.py builds the op files):
//
//   perfbench_driver missions --workload attack-1k6 --ops FILE [--trace 0|1]
//   perfbench_driver service  --ops FILE --dir DIR [--trace 0|1]
//   perfbench_driver direct   --ops FILE
//
// Prints one JSON object with the raw measurements on stdout.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analysis/fuzz.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void JsonOut::key(const std::string& name) {
  if (!first_) out_ << ',';
  first_ = false;
  out_ << '"' << json_escape(name) << "\":";
}

std::string JsonOut::finish() const {
  std::string text(1, '{');
  text += out_.str();
  text += '}';
  return text;
}

void JsonOut::num(const std::string& name, double value) {
  key(name);
  out_ << value;
}

void JsonOut::integer(const std::string& name, std::uint64_t value) {
  key(name);
  out_ << value;
}

void JsonOut::boolean(const std::string& name, bool value) {
  key(name);
  out_ << (value ? "true" : "false");
}

void JsonOut::str(const std::string& name, const std::string& value) {
  key(name);
  out_ << '"' << json_escape(value) << '"';
}

void JsonOut::nums(const std::string& name, const std::vector<double>& values) {
  key(name);
  out_ << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i ? "," : "") << values[i];
  }
  out_ << ']';
}

void JsonOut::hexes(const std::string& name,
                    const std::vector<std::uint64_t>& values) {
  key(name);
  out_ << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i ? ",\"" : "\"") << hex64(values[i]) << '"';
  }
  out_ << ']';
}

void JsonOut::strs(const std::string& name,
                   const std::vector<std::string>& values) {
  key(name);
  out_ << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i ? ",\"" : "\"") << json_escape(values[i]) << '"';
  }
  out_ << ']';
}

void JsonOut::object(const std::string& name, const JsonOut& inner) {
  key(name);
  out_ << inner.finish();
}

std::vector<bool> setup_sample_points(std::size_t n) {
  std::vector<bool> after(n, false);
  for (std::size_t k = 1; k < kSetupSamples; ++k) {
    const std::size_t end = k * n / kSetupSamples;
    if (end > 0) after[end - 1] = true;
  }
  return after;
}

std::uint64_t direct_digest(const std::string& repro) {
  namespace an = wrsn::analysis;
  const auto [config, mode] = an::resolve_overrides(an::parse_repro(repro));
  return an::digest_result(an::run_mission(config, mode));
}

int run_direct(const std::string& ops_path) {
  std::ifstream in(ops_path);
  if (!in) throw std::runtime_error("cannot read op file " + ops_path);
  std::vector<std::uint64_t> digests;
  std::vector<std::string> errors;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    digests.push_back(0);
    errors.emplace_back();
    try {
      digests.back() = direct_digest(line);
    } catch (const std::exception& e) {
      errors.back() = e.what();
    }
  }
  JsonOut out;
  out.hexes("digests", digests);
  out.strs("errors", errors);
  std::cout << out.finish() << '\n';
  return 0;
}

std::uint64_t peak_rss_kib() {
  // VmHWM belongs to this program's address space.  getrusage's ru_maxrss
  // would also hold the peak of the process image that exec replaced (here
  // the forked Python parent), which can exceed the program's own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench

namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::string ops;
  std::string dir;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) throw std::invalid_argument("missing flag value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--ops") {
      args.ops = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.ops.empty()) throw std::invalid_argument("--ops is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "missions") {
      return perfbench::run_missions(args.workload, args.ops, args.trace);
    }
    if (args.mode == "service") {
      if (args.dir.empty()) throw std::invalid_argument("--dir is required");
      return perfbench::run_service(args.ops, args.dir, args.trace);
    }
    if (args.mode == "direct") return perfbench::run_direct(args.ops);
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
}
