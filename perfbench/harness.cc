#include "perfbench/harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return j;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already included in user, so only the first eight are summed.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kTypedError: return "typed_error";
    case Outcome::kShed: return "shed";
    case Outcome::kRefused: return "refused";
    case Outcome::kUnanswered: return "unanswered";
  }
  return "?";
}

uint64_t OutcomeCounts::Attempted() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

uint64_t OutcomeCounts::Retries() const {
  uint64_t total = 0;
  for (uint64_t c : retried) total += c;
  return total;
}

OutcomeCounts OutcomeCounts::PerTry() const {
  OutcomeCounts out;
  for (int i = 0; i < 5; ++i) out.counts[i] = counts[i] + retried[i];
  return out;
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& other) {
  for (int i = 0; i < 5; ++i) {
    counts[i] += other.counts[i];
    retried[i] += other.retried[i];
  }
  return *this;
}

std::vector<Window> RunWindowClock(uint64_t start_ns, double seconds,
                                   int windows,
                                   const std::function<uint64_t()>& completed,
                                   std::atomic<bool>* stop) {
  std::vector<Window> out;
  const uint64_t window_ns =
      static_cast<uint64_t>(seconds * 1e9 / std::max(1, windows));
  uint64_t wall = start_ns;
  uint64_t cpu = ProcessCpuNs();
  uint64_t count = completed();
  for (int w = 0; w < windows; ++w) {
    SleepUntilNs(start_ns + window_ns * static_cast<uint64_t>(w + 1));
    Window win;
    win.start_ns = wall;
    win.cpu_start_ns = cpu;
    win.end_ns = wall = NowNs();
    win.cpu_end_ns = cpu = ProcessCpuNs();
    const uint64_t now = completed();
    win.done = static_cast<double>(now - count);
    count = now;
    out.push_back(win);
  }
  stop->store(true, std::memory_order_release);
  return out;
}

PhaseSummary Summarize(const std::vector<OpRecord>& ops,
                       const std::vector<Window>& windows,
                       uint64_t quantile_window_ns) {
  PhaseSummary s;
  const size_t nw = windows.size();
  if (nw == 0) return s;
  std::vector<double> rates, cpus;
  for (const Window& w : windows) {
    const double secs = 1e-9 * static_cast<double>(w.end_ns - w.start_ns);
    s.wall_s += secs;
    if (w.done <= 0.0 || secs <= 0.0) continue;
    rates.push_back(w.done / secs);
    cpus.push_back(1e-3 * static_cast<double>(w.cpu_end_ns - w.cpu_start_ns) /
                   w.done);
  }
  s.throughput_per_s = Median(rates);
  s.cpu_us_per_op = Median(cpus);

  const uint64_t phase_start = windows.front().start_ns;
  const uint64_t phase_end = windows.back().end_ns;
  std::vector<double> all_lat;
  std::vector<std::vector<double>> slices;
  uint64_t misses = 0;
  for (const OpRecord& op : ops) {
    const bool ok = op.outcome == Outcome::kOk;
    if (!ok || op.latency_ns > kSloLimitNs) ++misses;
    if (!ok || op.end_ns < phase_start || op.end_ns > phase_end) continue;
    const double us = 1e-3 * static_cast<double>(op.latency_ns);
    all_lat.push_back(us);
    if (quantile_window_ns > 0) {
      const size_t slice = (op.end_ns - phase_start) / quantile_window_ns;
      if (slice >= slices.size()) slices.resize(slice + 1);
      slices[slice].push_back(us);
    }
  }
  s.samples = all_lat.size();
  // Quantiles per slice, over slices with enough samples for a p99 and
  // wholly inside the phase.
  std::vector<double> p50s, p99s;
  for (size_t k = 0; k < slices.size(); ++k) {
    if (slices[k].size() < kMinSliceSamples ||
        phase_start + (k + 1) * quantile_window_ns > phase_end) {
      continue;
    }
    p50s.push_back(Quantile(slices[k], 0.5));
    p99s.push_back(Quantile(slices[k], 0.99));
  }
  if (!p99s.empty()) {
    s.p50_us = Median(p50s);
    s.p99_us = Median(p99s);
  } else {
    s.p50_us = Quantile(all_lat, 0.5);
    s.p99_us = Quantile(all_lat, 0.99);
  }
  s.run_p99_us = Quantile(all_lat, 0.99);
  s.slo_miss_share = ops.empty() ? 0.0
                                 : static_cast<double>(misses) /
                                       static_cast<double>(ops.size());
  return s;
}

namespace {

constexpr int kControlBatches = 7;
constexpr int kControlTrips = 300;

/// Median over batches of the mean round trip, in microseconds.
template <typename RoundTrip>
double MedianRttUs(RoundTrip&& trip) {
  std::vector<double> batches;
  for (int b = 0; b < kControlBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kControlTrips; ++i) trip();
    batches.push_back(1e-3 * static_cast<double>(NowNs() - t0) /
                      kControlTrips);
  }
  return Median(batches);
}

double CondvarRttUs() {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t turn = 0;  // even: ping's turn, odd: pong's turn
  bool quit = false;
  std::thread pong([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return quit || turn % 2 == 1; });
      if (quit) return;
      ++turn;
      cv.notify_all();
    }
  });
  const double us = MedianRttUs([&] {
    std::unique_lock<std::mutex> lock(mu);
    ++turn;
    cv.notify_all();
    cv.wait(lock, [&] { return turn % 2 == 0; });
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    quit = true;
  }
  cv.notify_all();
  pong.join();
  return us;
}

double EventfdRttUs() {
  const int ping_fd = eventfd(0, 0);
  const int pong_fd = eventfd(0, 0);
  if (ping_fd < 0 || pong_fd < 0) {
    if (ping_fd >= 0) close(ping_fd);
    if (pong_fd >= 0) close(pong_fd);
    return 0.0;
  }
  // A value of 2 on the ping fd tells the echo thread to exit.
  std::thread echo([&] {
    while (true) {
      uint64_t v = 0;
      if (read(ping_fd, &v, sizeof(v)) != sizeof(v) || v >= 2) return;
      v = 1;
      if (write(pong_fd, &v, sizeof(v)) != sizeof(v)) return;
    }
  });
  const double us = MedianRttUs([&] {
    uint64_t v = 1;
    if (write(ping_fd, &v, sizeof(v)) != sizeof(v)) return;
    if (read(pong_fd, &v, sizeof(v)) != sizeof(v)) return;
  });
  uint64_t quit = 2;
  if (write(ping_fd, &quit, sizeof(quit)) != sizeof(quit)) {
    std::fprintf(stderr, "eventfd control: cannot stop echo thread\n");
  }
  echo.join();
  close(ping_fd);
  close(pong_fd);
  return us;
}

bool ReadFull(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t n) {
  size_t put = 0;
  while (put < n) {
    const ssize_t r = send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    put += static_cast<size_t>(r);
  }
  return true;
}

double TcpRttUs() {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return 0.0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, 1) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(listener);
    return 0.0;
  }
  const int client = socket(AF_INET, SOCK_STREAM, 0);
  if (client < 0 ||
      connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (client >= 0) close(client);
    close(listener);
    return 0.0;
  }
  const int server = accept(listener, nullptr, nullptr);
  close(listener);
  if (server < 0) {
    close(client);
    return 0.0;
  }
  const int one = 1;
  setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The echo thread ends when the client closes its end.
  std::thread echo([server] {
    char buf[64];
    while (ReadFull(server, buf, sizeof(buf)) &&
           WriteFull(server, buf, sizeof(buf))) {
    }
  });
  char msg[64];
  std::memset(msg, 0x5a, sizeof(msg));
  bool broken = false;
  const double us = MedianRttUs([&] {
    if (broken) return;
    broken = !WriteFull(client, msg, sizeof(msg)) ||
             !ReadFull(client, msg, sizeof(msg));
  });
  shutdown(client, SHUT_RDWR);
  echo.join();
  close(client);
  close(server);
  return broken ? 0.0 : us;
}

double CpuLoopNs() {
  constexpr size_t kWords = 1 << 20;  // 4 MiB: beyond L2, inside L3
  constexpr size_t kSteps = 1 << 18;
  std::vector<uint32_t> table(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  std::vector<double> batches;
  uint64_t h = 0;
  for (int b = 0; b < kControlBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kSteps; ++i) {
      h = (h ^ table[(h + i * 7919) & (kWords - 1)]) * 1099511628211ull;
    }
    batches.push_back(static_cast<double>(NowNs() - t0) / kSteps);
  }
  // Keeps the loop from being optimized away.
  return Median(batches) + (h == 1 ? 1e-9 : 0.0);
}

}  // namespace

HostControls MeasureHostControls() {
  HostControls h;
  h.condvar_rtt_us = CondvarRttUs();
  h.eventfd_rtt_us = EventfdRttUs();
  h.tcp_rtt_us = TcpRttUs();
  h.cpu_loop_ns = CpuLoopNs();
  return h;
}

uint64_t SpanLog::Buffer::Add(uint32_t name, uint64_t request,
                              uint64_t parent, uint64_t start_ns,
                              uint64_t end_ns) {
  Span s;
  s.name = name;
  s.thread = thread_;
  s.request = request;
  s.parent = parent;
  s.id = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

uint32_t SpanLog::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanLog::Buffer* SpanLog::NewBuffer() {
  auto buffer = std::make_unique<Buffer>();
  buffer->log_ = this;
  buffer->thread_ = static_cast<uint32_t>(buffers_.size());
  buffer->spans_.reserve(1 << 16);
  buffers_.push_back(std::move(buffer));
  return buffers_.back().get();
}

size_t SpanLog::size() const {
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans_.size();
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"span\":%llu,\"parent\":%llu}}",
                   first ? "" : ",\n", names_[s.name].c_str(), s.thread,
                   1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

/// Records the figures every workload shares from its reported phase.
void ReportPhase(const Phase& phase, const PhaseOutput& out,
                 std::vector<double> setup_s, double steal_share,
                 RunResult* result) {
  const PhaseSummary& s = out.summary;
  setup_s.insert(setup_s.end(), out.setup_s.begin(), out.setup_s.end());
  result->outcomes = out.outcomes;
  result->E2E("setup_s", Median(setup_s), "s");
  result->E2E("throughput_per_s", s.throughput_per_s, "1/s");
  result->E2E("cpu_us_per_op", s.cpu_us_per_op, "us");
  result->E2E("peak_rss_mb", out.peak_rss_mb, "MB");
  const double attempted = static_cast<double>(out.outcomes.Attempted());
  // Per try: a shed the client retried still counts against the program.
  const OutcomeCounts tries = out.outcomes.PerTry();
  result->Layer("error_share",
                tries.Attempted() > 0
                    ? static_cast<double>(tries.Failed()) /
                          static_cast<double>(tries.Attempted())
                    : 0.0,
                "share");
  result->Layer("load.retried", static_cast<double>(out.outcomes.Retries()),
                "count");
  result->Layer("host.steal_share", steal_share, "share");
  result->Layer("load.offered_per_s",
                s.wall_s > 0.0 ? attempted / s.wall_s : 0.0, "1/s");
  if (!phase.keep_samples) return;
  result->Layer("latency_samples", static_cast<double>(s.samples), "count");
  // Latency is reported, not gated: on a shared host, host preemption moved
  // wire_warm's p50 by up to 2.5x and its p99 by 3x between runs.
  result->Layer("p50_us", s.p50_us, "us");
  result->Layer("p99_us", s.p99_us, "us");
  result->Layer("run_p99_us", s.run_p99_us, "us");
  result->Layer("load.send_lag_p50_us", 1e-3 * Quantile(out.send_lag_ns, 0.5),
                "us");
  result->Layer("load.send_lag_p99_us",
                1e-3 * Quantile(out.send_lag_ns, 0.99), "us");
}

}  // namespace

void RunPhases(const RunConfig& cfg, SpanLog* spans,
               std::vector<double> setup_s,
               const std::function<PhaseOutput(const Phase&)>& run_phase,
               RunResult* result) {
  auto measure = [&](const Phase& phase) {
    const CpuJiffies j0 = ReadCpuJiffies();
    PhaseOutput out = run_phase(phase);
    const CpuJiffies j1 = ReadCpuJiffies();
    if (phase.report) {
      ReportPhase(phase, out, setup_s, StealShare(j0, j1), result);
    }
    return out.summary;
  };
  if (!cfg.trace) {
    measure(Phase{cfg.seconds, nullptr, false, true});
    return;
  }
  const PhaseSummary untraced =
      measure(Phase{cfg.seconds / 2, nullptr, true, false});
  const PhaseSummary traced = measure(Phase{cfg.seconds / 2, spans, true, true});
  auto rel = [](double traced_v, double untraced_v) {
    return untraced_v > 0.0 ? traced_v / untraced_v - 1.0 : 0.0;
  };
  result->Layer("obs.trace_overhead.throughput_per_s",
                rel(traced.throughput_per_s, untraced.throughput_per_s),
                "share");
  result->Layer("obs.trace_overhead.p50_us",
                rel(traced.p50_us, untraced.p50_us), "share");
}

}  // namespace perfbench
