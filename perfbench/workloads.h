// The benchmark's workloads and the pieces of a run they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

/// Each workload generates its inputs from cfg.seed, sets its system up,
/// measures through RunPhases and checks the answers. With cfg.trace the
/// traced phase's spans go to `spans`.
RunResult RunWireWarm(const RunConfig& cfg, SpanLog* spans);
RunResult RunInprocCold(const RunConfig& cfg, SpanLog* spans);
RunResult RunIngestWal(const RunConfig& cfg, SpanLog* spans);

/// inproc_cold's traced run also measures the shard layer: a few seconds
/// of a closed loop into a 4-shard ShardRouter, its answers checked
/// against a single-node QueryServer, reported as the shard.* metrics.
void ProbeShardFleet(uint64_t seed, SpanLog* spans, RunResult* result);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

/// Builds the system kSetupRepeats times, timing each build (the previous
/// system is torn down before the clock starts), and keeps the last one.
/// Stops early once a build records a check failure.
template <typename T, typename Build>
std::unique_ptr<T> SetUpRepeated(Build build, RunResult* result,
                                 std::vector<double>* seconds) {
  std::unique_ptr<T> kept;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kept.reset();
    const uint64_t t0 = NowNs();
    std::unique_ptr<T> built = build();
    seconds->push_back(1e-9 * static_cast<double>(NowNs() - t0));
    kept = std::move(built);
    if (!result->check_failures.empty()) break;
  }
  return kept;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
