// Mission benchmark driver: shared declarations.
//
// The driver is the compiled half of perfbench/run.py.  run.py generates a
// workload's op list from its seed, hands it over as a text file, and turns
// the raw measurements this driver prints (one JSON object on stdout) into
// the benchmark's metrics.  Everything here times calls into the repo's
// public functions from the outside; nothing is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with full precision, u64 digests as 16-digit hex strings.
class JsonOut {
 public:
  JsonOut() { out_.precision(17); }
  void num(const std::string& key, double value);
  void integer(const std::string& key, std::uint64_t value);
  void boolean(const std::string& key, bool value);
  void str(const std::string& key, const std::string& value);
  void nums(const std::string& key, const std::vector<double>& values);
  void hexes(const std::string& key, const std::vector<std::uint64_t>& values);
  void strs(const std::string& key, const std::vector<std::string>& values);
  /// Embeds another object verbatim.
  void object(const std::string& key, const JsonOut& inner);
  std::string finish() const;

 private:
  void key(const std::string& name);
  std::ostringstream out_;
  bool first_ = true;
};

/// Peak resident set of this program [KiB] (VmHWM).
std::uint64_t peak_rss_kib();

/// Per-stage wall time [s] and exact counts of one traced mission, from
/// standalone timers around the stages' public entry points plus a timing
/// planner decorator.
struct StageSample {
  double op_s = 0.0;  ///< the traced run_mission itself
  double topology_s = 0.0;
  double world_init_s = 0.0;
  double keys_s = 0.0;
  double plan_s = 0.0;
  double detect_s = 0.0;
  double report_s = 0.0;

  std::uint64_t events = 0;
  std::uint64_t deaths = 0;
  std::uint64_t requests = 0;
  std::uint64_t replans = 0;
  std::uint64_t stops = 0;           ///< sum of stops over replans
  std::uint64_t instance_pairs = 0;  ///< sum of stops^2 over replans
  std::uint64_t sessions = 0;
  std::uint64_t spoofed_sessions = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t digest = 0;
};

/// Runs `config` once through run_mission with a timing planner and then
/// re-times topology generation, world construction, key selection, the
/// detector suite and the report on the same inputs.  Throws if the
/// standalone stages disagree with the mission's own result.
StageSample trace_mission(const wrsn::analysis::ScenarioConfig& config,
                          wrsn::analysis::ChargerMode mode);

/// Adds the per-layer sums of `samples` to `out` (totals, not means; run.py
/// divides by the op count).
void write_stage_totals(JsonOut& out, const std::vector<StageSample>& samples);

/// Set-up samples per run.  The set-up before the first op is the first;
/// the rest repeat the same set-up at evenly spaced points of a busy phase
/// of the run (between mission ops, or between the direct runs of the
/// service-mix output check), outside every op's timing.  Their median then
/// reflects the host's speed over many seconds, as the op figures do,
/// rather than at one instant: host speed on a shared VM flips between
/// levels on sub-second scales, which a burst of back-to-back set-ups
/// samples only once.
constexpr std::size_t kSetupSamples = 64;

/// Where a phase of n steps repeats its set-up: after step
/// floor(k*n/kSetupSamples)-1 for k = 1..kSetupSamples-1 (fewer points when
/// n is smaller).  Returns a mask of length n.
std::vector<bool> setup_sample_points(std::size_t n);

/// Digest of a direct run_mission of one repro line (`k=v;...`).
std::uint64_t direct_digest(const std::string& repro);

/// `missions` mode: runs a mission workload's op list (one mission seed per
/// line).  Returns the process exit code.
int run_missions(const std::string& workload, const std::string& ops_path,
                 bool trace);

/// `service` mode: serves a request stream (one repro line per line) over a
/// unix socket in `dir`.  Returns the process exit code.
int run_service(const std::string& ops_path, const std::string& dir,
                bool trace);

/// `direct` mode: runs every repro line of an op file directly and prints
/// the result digests (used to pin the service-mix key pool).
int run_direct(const std::string& ops_path);

}  // namespace perfbench
