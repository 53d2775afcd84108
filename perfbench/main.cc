// Benchmark program: runs one seeded workload, prints every metric by name
// and unit, and ends with one machine-readable result line.
//
//   tsdm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// run.py builds this binary and turns the result line into the
// benchmark's output contract; see README.md in this directory.

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {

namespace {

/// Confines the process to one CPU, the highest it may use. Every thread
/// the benchmark and the program start inherits it. On a shared 4-vCPU
/// host, runs spread over all vCPUs saw 20-30% steal and closed-loop
/// throughput moving 2x between identical runs; on one CPU steal stays
/// near 1% and runs repeat. The cost: gains from parallelism cannot show.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "tsdm_perfbench: %s\nusage: tsdm_perfbench --workload "
               "<wire_warm|inproc_cold|ingest_wal> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = errno == 0 && *end == '\0';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = errno == 0 && *end == '\0' && cfg.seconds > 0 &&
                     cfg.seconds <= 120;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  RunResult (*run)(const RunConfig&, SpanLog*) = nullptr;
  if (cfg.workload == "wire_warm") run = RunWireWarm;
  if (cfg.workload == "inproc_cold") run = RunInprocCold;
  if (cfg.workload == "ingest_wal") run = RunIngestWal;
  if (run == nullptr) {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.out_dir).c_str());

  const int cpu = PinToOneCpu();
  std::printf("workload %s  seed %llu  seconds %g  trace %d  cpu %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cpu);
  std::fflush(stdout);
  const HostControls host = MeasureHostControls();
  SpanLog spans;
  RunResult result = run(cfg, cfg.trace ? &spans : nullptr);
  result.Layer("host.condvar_rtt_us", host.condvar_rtt_us, "us");
  result.Layer("host.eventfd_rtt_us", host.eventfd_rtt_us, "us");
  result.Layer("host.tcp_rtt_us", host.tcp_rtt_us, "us");
  result.Layer("host.cpu_loop_ns", host.cpu_loop_ns, "ns");
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    if (spans.WriteChromeTrace(path)) {
      result.notes.push_back("spans: " + std::to_string(spans.size()) +
                             " written to " + path);
    } else {
      result.Fail("cannot write spans to " + path);
    }
  }

  const OutcomeCounts& o = result.outcomes;
  std::printf("outcomes: attempted %llu", static_cast<unsigned long long>(
                                              o.Attempted()));
  for (int k = 0; k < 5; ++k) {
    std::printf("  %s %llu", OutcomeName(static_cast<Outcome>(k)),
                static_cast<unsigned long long>(o.counts[k]));
  }
  std::printf("\n");
  PrintMetrics("end-to-end:", result.end_to_end);
  PrintMetrics(cfg.trace ? "per-layer (traced phase):"
                         : "per-layer (untraced run; reported with --trace 1):",
               result.per_layer);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string failures = "[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) failures += ',';
    failures += JsonString(result.check_failures[i]);
  }
  failures += "]";
  std::printf(
      "PERFBENCH_RESULT {\"workload\":%s,\"seed\":%llu,\"trace\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"check_failures\":%s,\"end_to_end\":%s,\"per_layer\":%s}\n",
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? "true" : "false",
      result.check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(o.Attempted()),
      static_cast<unsigned long long>(o.Failed()), failures.c_str(),
      MetricsJson(result.end_to_end).c_str(),
      MetricsJson(result.per_layer).c_str());
  return 0;
}
