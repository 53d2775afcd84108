// Measurement harness shared by the benchmark's workloads: clocks, raw
// latency samples, process CPU and memory readings, host control probes,
// the benchmark's own span log, and the result every workload returns.
//
// Everything here times the program from outside, through its public API;
// nothing reaches into src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock steady_clock uses).
uint64_t NowNs();

/// Sleeps until the absolute CLOCK_MONOTONIC time `deadline_ns`.
void SleepUntilNs(uint64_t deadline_ns);

/// Process CPU time (user + system, getrusage) in nanoseconds.
uint64_t ProcessCpuNs();

/// Peak resident set size (VmHWM) of this process, in MiB.
double PeakRssMb();

/// Aggregate CPU jiffies from /proc/stat: steal and the total of all fields.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuJiffies ReadCpuJiffies();
/// Steal share of all CPU time between two readings (0 when unavailable).
double StealShare(const CpuJiffies& before, const CpuJiffies& after);

/// Quantile `q` in [0, 1] of `values` (nearest rank on a sorted copy).
/// Returns 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// How one attempted operation ended. Every attempted operation gets
/// exactly one.
enum class Outcome : uint8_t {
  kOk = 0,
  kTypedError,  ///< answered with a non-OK status other than a shed
  kShed,        ///< shed after or at admission (ResourceExhausted, closed)
  kRefused,     ///< the submit call itself was rejected
  kUnanswered,  ///< no answer by the end of the run's drain period
};
const char* OutcomeName(Outcome outcome);

/// Final outcomes of the attempted operations, and the outcomes of the
/// earlier tries the clients retried (see Retryable in world.h).
struct OutcomeCounts {
  uint64_t counts[5] = {0, 0, 0, 0, 0};
  uint64_t retried[5] = {0, 0, 0, 0, 0};

  void Add(Outcome o, uint64_t n = 1) { counts[static_cast<int>(o)] += n; }
  void AddRetried(Outcome o) { ++retried[static_cast<int>(o)]; }
  uint64_t Of(Outcome o) const { return counts[static_cast<int>(o)]; }
  uint64_t Attempted() const;
  uint64_t Failed() const { return Attempted() - Of(Outcome::kOk); }
  uint64_t Retries() const;
  /// Every try as an operation of its own: what the servers count.
  OutcomeCounts PerTry() const;
  OutcomeCounts& operator+=(const OutcomeCounts& other);
};

/// One completed operation of a measured phase.
struct OpRecord {
  uint64_t end_ns = 0;
  uint64_t latency_ns = 0;
  Outcome outcome = Outcome::kOk;
};

/// One measurement window of a phase: its wall interval, the process CPU
/// clock at both ends, and the operations completed OK inside it.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_start_ns = 0;
  uint64_t cpu_end_ns = 0;
  double done = 0.0;  ///< operations (ticks for ingest_wal) completed OK
};

/// Runs the calling thread as the phase clock: splits [start_ns,
/// start_ns + seconds) into `windows` equal windows, sleeping in between,
/// and samples process CPU and `completed()`, the running count of
/// operations completed OK, at every boundary. Sets `stop` at the end.
std::vector<Window> RunWindowClock(uint64_t start_ns, double seconds,
                                   int windows,
                                   const std::function<uint64_t()>& completed,
                                   std::atomic<bool>* stop);

/// Figures of one measured phase. Throughput and CPU per operation come
/// from the windows' completion counts: the median of their per-window
/// values, which keeps a host stall in one window from moving the run's
/// result. Latency and slo_miss_share come from `ops`, the raw
/// per-operation samples, which only a trace run keeps (see Phase).
///
/// Latency quantiles: with `quantile_window_ns` set, the phase is cut into
/// slices of that length and p50/p99 are the medians of the per-slice
/// quantiles, over slices holding at least kMinSliceSamples samples (so each
/// p99 has ten samples beyond it). A host preemption of a few milliseconds
/// then spoils the slices it falls in rather than the run's p99; the blind
/// spot is a stall the program itself causes in fewer than half the
/// slices, which run_p99_us (whole phase) and slo_miss_share still show.
/// With 0, or when no slice qualifies, the quantiles span the whole phase.
struct PhaseSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double run_p99_us = 0.0;  ///< p99 over every sample of the phase
  double throughput_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  size_t samples = 0;      ///< successful operations with a latency sample
  double wall_s = 0.0;
  double slo_miss_share = 0.0;  ///< failed or slower than the 10 ms limit
};
inline constexpr size_t kMinSliceSamples = 1000;
/// Slice length for workloads fast enough to fill slices: 120 ms holds
/// about 1200 requests at 10k q/s.
inline constexpr uint64_t kLatencySliceNs = 120'000'000;
PhaseSummary Summarize(const std::vector<OpRecord>& ops,
                       const std::vector<Window>& windows,
                       uint64_t quantile_window_ns);

/// Latency limit of the slo_miss_share metric.
inline constexpr uint64_t kSloLimitNs = 10'000'000;

/// Host figures no code change can move: round trips of a condvar
/// ping-pong, an eventfd ping-pong and a 64-byte loopback TCP echo, and the
/// time of a fixed memory-bound loop (4 MiB of random reads), which tracks
/// the CPU speed a shared host lends this run. Each value is the median of
/// several batches.
struct HostControls {
  double condvar_rtt_us = 0.0;
  double eventfd_rtt_us = 0.0;
  double tcp_rtt_us = 0.0;
  double cpu_loop_ns = 0.0;  ///< per loop step
};
HostControls MeasureHostControls();

/// The benchmark's own spans: one per timed call into a layer, kept in
/// memory per thread and written out when the run ends.
struct Span {
  uint32_t name = 0;        ///< index into SpanLog names
  uint32_t thread = 0;
  uint64_t request = 0;     ///< spans of one operation share this id
  uint64_t parent = 0;      ///< id of the causing span (0 = root)
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// A per-thread buffer; only its owning thread appends to it.
  class Buffer {
   public:
    /// Records a finished span and returns its id.
    uint64_t Add(uint32_t name, uint64_t request, uint64_t parent,
                 uint64_t start_ns, uint64_t end_ns);

   private:
    friend class SpanLog;
    SpanLog* log_ = nullptr;
    uint32_t thread_ = 0;
    std::vector<Span> spans_;
  };

  /// Registers a span name; call before threads start recording.
  uint32_t Name(const std::string& name);
  /// A new buffer for one thread. Buffers live as long as the log.
  Buffer* NewBuffer();

  size_t size() const;

  /// Writes every span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// A named value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  OutcomeCounts outcomes;
  std::vector<std::string> check_failures;  ///< empty = every check passed
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;           ///< extra human-readable lines

  void Fail(const std::string& why) { check_failures.push_back(why); }
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
};

/// Parsed command line of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// One measured phase of a workload run.
struct Phase {
  double seconds = 0.0;
  SpanLog* spans = nullptr;  ///< null = untraced
  /// Keep per-operation samples (latency, send lag, submit time). Only a
  /// trace run keeps them: a --trace 0 run reports peak_rss_mb, and buffers
  /// that grow with throughput would charge the benchmark's memory to the
  /// program.
  bool keep_samples = false;
  /// Record the workload's own per-layer metrics from this phase.
  bool report = false;
};

/// What a workload's phase hands back to RunPhases.
struct PhaseOutput {
  PhaseSummary summary;
  OutcomeCounts outcomes;
  /// How late each operation was issued: behind its due time in an open
  /// loop, the client's turnaround since the previous answer in a closed
  /// loop. Kept with the samples only.
  std::vector<double> send_lag_ns;
  /// Set-ups the phase itself made (ingest_wal sets up every round).
  std::vector<double> setup_s;
  /// VmHWM once the phase's load has stopped, before the benchmark's own
  /// post-processing of its samples.
  double peak_rss_mb = 0.0;
};

/// Runs a workload's measured phases and records the figures every
/// workload shares. A --trace 0 run measures one untraced phase of
/// cfg.seconds. A --trace 1 run measures an untraced half, then a traced
/// half that reports, and records their difference as
/// obs.trace_overhead.*. From the reported phase it records the outcomes,
/// throughput_per_s, cpu_us_per_op, peak_rss_mb, error_share,
/// host.steal_share, load.offered_per_s and, with samples, the latency
/// quantiles and load.send_lag_*. setup_s is the median of `setup_s` and
/// the phase's own set-ups.
void RunPhases(const RunConfig& cfg, SpanLog* spans,
               std::vector<double> setup_s,
               const std::function<PhaseOutput(const Phase&)>& run_phase,
               RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
