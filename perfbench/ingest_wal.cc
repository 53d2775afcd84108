// ingest_wal: tick-feed bytes from GenerateTrafficTickFeed go through
// IngestService::IngestBytes in 64 KiB chunks, with the WAL's group commit
// every 256 ticks; after the feed the service restarts and replays the log.
// The run repeats that round until its time is up.
//
// This is the write path beside the read paths. It shares the framed-
// record parsing layer with wire_warm but streams in bulk and pays for
// durability, so a codec change that helps one use and costs the other
// shows on one of the two workloads.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/ingest/ingest_service.h"
#include "src/ingest/tick_codec.h"
#include "src/ingest/tick_parser.h"
#include "src/ingest/wal.h"
#include "src/sim/road_gen.h"
#include "src/sim/tick_feed.h"
#include "src/sim/traffic_sim.h"

namespace perfbench {

namespace {

constexpr size_t kChunkBytes = 64 * 1024;
constexpr size_t kSensors = 64;
constexpr int kSteps = 4000;
constexpr int kStepSeconds = 30;
constexpr uint64_t kFeedNetworkSeed = 7;

std::vector<uint8_t> MakeFeed(uint64_t seed) {
  tsdm::Rng net_rng(kFeedNetworkSeed);
  tsdm::RoadNetwork network =
      tsdm::GenerateGridNetwork(tsdm::GridNetworkSpec{}, &net_rng);
  tsdm::TrafficSimulator sim(&network, tsdm::TrafficSpec{});
  std::vector<int> edges;
  for (size_t e = 0; e < kSensors; ++e) edges.push_back(static_cast<int>(e));
  tsdm::Rng rng(seed);
  return tsdm::GenerateTrafficTickFeed(sim, edges, kSteps, kStepSeconds, &rng);
}

tsdm::IngestOptions Options(const std::string& wal_dir) {
  tsdm::IngestOptions o;
  o.num_sensors = kSensors;
  o.wal_dir = wal_dir;
  return o;
}

/// Everything state-bearing about a service, for bitwise comparison across
/// a restart.
struct Fingerprint {
  std::vector<uint8_t> pipeline_state;
  std::vector<uint64_t> forecast_bits;
  uint64_t alarms = 0;
  uint64_t ticks = 0;
  std::vector<std::vector<double>> buffer_values;
  std::vector<std::vector<int64_t>> buffer_timestamps;

  bool operator==(const Fingerprint& o) const {
    return pipeline_state == o.pipeline_state &&
           forecast_bits == o.forecast_bits && alarms == o.alarms &&
           ticks == o.ticks && buffer_values == o.buffer_values &&
           buffer_timestamps == o.buffer_timestamps;
  }
};

Fingerprint Take(tsdm::IngestService* service) {
  Fingerprint fp;
  (void)service->pipeline().SaveState(&fp.pipeline_state);
  for (size_t s = 0; s < kSensors; ++s) {
    const double f = service->forecast_stage().ForecastNext(s);
    uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    fp.forecast_bits.push_back(bits);
  }
  fp.alarms = service->anomaly_stage().alarms();
  fp.ticks = service->pipeline().ticks_processed();
  fp.buffer_values.resize(kSensors);
  fp.buffer_timestamps.resize(kSensors);
  for (size_t s = 0; s < kSensors; ++s) {
    service->buffer().SnapshotSensor(s, &fp.buffer_values[s],
                                     &fp.buffer_timestamps[s]);
  }
  return fp;
}

/// Opens a service over an empty log: the set-up setup_s times.
std::unique_ptr<tsdm::IngestService> OpenFresh(const std::string& dir,
                                               RunResult* result) {
  std::filesystem::remove_all(dir);
  auto service = std::make_unique<tsdm::IngestService>(Options(dir));
  if (!service->Start().ok()) result->Fail("ingest_wal: start failed");
  return service;
}

struct RoundsRun {
  PhaseOutput out;
  std::vector<OpRecord> ops;    ///< one per chunk, with samples only
  std::vector<Window> windows;  ///< one per round: its feed
  std::vector<double> recovery_s, recovery_mb_per_s;
  uint64_t rejected = 0;
  int rounds = 0;
};

/// Feed, sync, stop, restart and verify, round after round until the
/// phase's time has passed.
RoundsRun RunRounds(const std::vector<uint8_t>& feed, const std::string& dir,
                    const Phase& phase, RunResult* result) {
  RoundsRun run;
  SpanLog* spans = phase.spans;
  SpanLog::Buffer* buf = spans ? spans->NewBuffer() : nullptr;
  const uint32_t n_round = spans ? spans->Name("client/round") : 0;
  const uint32_t n_ingest = spans ? spans->Name("client/ingest_bytes") : 0;
  const uint32_t n_sync = spans ? spans->Name("client/sync") : 0;
  const uint32_t n_restart = spans ? spans->Name("client/restart") : 0;
  const uint64_t feed_ticks = feed.size() / tsdm::kTickFrameSize;
  const uint64_t end_ns =
      NowNs() + static_cast<uint64_t>(phase.seconds * 1e9);
  for (; NowNs() < end_ns && result->check_failures.empty(); ++run.rounds) {
    const uint64_t round = static_cast<uint64_t>(run.rounds);
    const uint64_t s0 = NowNs();
    std::unique_ptr<tsdm::IngestService> service = OpenFresh(dir, result);
    run.out.setup_s.push_back(1e-9 * static_cast<double>(NowNs() - s0));
    if (!result->check_failures.empty()) break;

    Window w;
    w.cpu_start_ns = ProcessCpuNs();
    w.start_ns = NowNs();
    uint64_t applied = 0;
    uint64_t last_ns = 0;
    bool dead = false;
    for (size_t pos = 0; pos < feed.size() && !dead; pos += kChunkBytes) {
      const size_t n = std::min(kChunkBytes, feed.size() - pos);
      const uint64_t t0 = NowNs();
      auto r = service->IngestBytes(feed.data() + pos, n);
      const uint64_t t1 = NowNs();
      if (buf) buf->Add(n_ingest, round, 0, t0, t1);
      dead = !r.ok();
      applied += r.ok() ? *r : 0;
      if (phase.keep_samples) {
        if (last_ns != 0) run.out.send_lag_ns.push_back(t0 - last_ns);
        run.ops.push_back({t1, t1 - t0, r.ok() ? Outcome::kOk
                                               : Outcome::kTypedError});
      }
      last_ns = t1;
    }
    const uint64_t t2 = NowNs();
    if (!service->Sync().ok()) result->Fail("ingest_wal: sync failed");
    w.end_ns = NowNs();
    w.cpu_end_ns = ProcessCpuNs();
    w.done = static_cast<double>(applied);
    if (buf) buf->Add(n_sync, round, 0, t2, w.end_ns);
    run.windows.push_back(w);

    const tsdm::IngestStatsSnapshot stats = service->Stats();
    const uint64_t rejected = stats.parser.RejectedTotal();
    run.rejected += rejected;
    run.out.outcomes.Add(Outcome::kOk, applied);
    run.out.outcomes.Add(Outcome::kTypedError, feed_ticks - applied);
    if (stats.ticks_processed != applied || stats.wal.records != applied ||
        applied + rejected != feed_ticks) {
      result->Fail("ingest_wal accounting: applied " + std::to_string(applied) +
                   ", processed " + std::to_string(stats.ticks_processed) +
                   ", logged " + std::to_string(stats.wal.records) +
                   ", rejected " + std::to_string(rejected) + ", fed " +
                   std::to_string(feed_ticks));
    }
    const Fingerprint saved = Take(service.get());
    if (!service->Stop().ok()) result->Fail("ingest_wal: stop failed");
    service.reset();

    const uint64_t r0 = NowNs();
    tsdm::IngestService restarted(Options(dir));
    const tsdm::Status started = restarted.Start();
    const uint64_t r1 = NowNs();
    if (buf) {
      buf->Add(n_restart, round, 0, r0, r1);
      buf->Add(n_round, round, 0, s0, r1);
    }
    const tsdm::RecoveryReport& rec = restarted.recovery();
    const double secs = 1e-9 * static_cast<double>(r1 - r0);
    run.recovery_s.push_back(secs);
    run.recovery_mb_per_s.push_back(
        secs > 0 ? static_cast<double>(rec.bytes_scanned) / 1e6 / secs : 0.0);
    if (!started.ok() || rec.ticks_replayed != applied) {
      result->Fail("ingest_wal: replayed " +
                   std::to_string(rec.ticks_replayed) + " ticks, accepted " +
                   std::to_string(applied));
    } else if (!(Take(&restarted) == saved)) {
      result->Fail("ingest_wal: restored pipeline state differs from the "
                   "state saved before the restart");
    }
    (void)restarted.Stop();
  }
  run.out.peak_rss_mb = PeakRssMb();
  std::filesystem::remove_all(dir);
  // Every chunk of a round is one operation; latency is per chunk, and
  // throughput counts ticks per round.
  run.out.summary = Summarize(run.ops, run.windows, 0);
  return run;
}

/// Direct timings of the layers under IngestBytes, over the same feed.
void ProbeLayers(const std::vector<uint8_t>& feed, const std::string& dir,
                 SpanLog* spans, RunResult* result) {
  SpanLog::Buffer* buf = spans->NewBuffer();
  constexpr int kPasses = 3;
  const double ticks = static_cast<double>(feed.size() / tsdm::kTickFrameSize);
  std::vector<double> parse, process, append;
  std::vector<double> sync_us;
  for (int pass = 0; pass < kPasses; ++pass) {
    tsdm::TickParser parser(kSensors);
    std::vector<tsdm::TickMsg> msgs;
    msgs.reserve(feed.size() / tsdm::kTickFrameSize);
    const uint64_t t0 = NowNs();
    for (size_t pos = 0; pos < feed.size(); pos += kChunkBytes) {
      parser.Consume(feed.data() + pos,
                     std::min(kChunkBytes, feed.size() - pos), &msgs);
    }
    const uint64_t t1 = NowNs();
    buf->Add(spans->Name("probe/tick_parse"), 0, 0, t0, t1);
    parse.push_back(static_cast<double>(t1 - t0) / ticks);

    tsdm::IngestService no_wal(Options(""));
    if (!no_wal.Start().ok()) result->Fail("ingest_wal: wal-off start failed");
    const uint64_t t2 = NowNs();
    for (size_t pos = 0; pos < feed.size(); pos += kChunkBytes) {
      (void)no_wal.IngestBytes(feed.data() + pos,
                               std::min(kChunkBytes, feed.size() - pos));
    }
    const uint64_t t3 = NowNs();
    buf->Add(spans->Name("probe/process"), 0, 0, t2, t3);
    process.push_back(static_cast<double>(t3 - t2) / ticks);

    // The WAL alone: one record per tick payload, a group commit every
    // 256 records, as the service does.
    std::filesystem::remove_all(dir);
    tsdm::WalWriter wal(dir, tsdm::WalOptions());
    if (!wal.Open().ok()) {
      result->Fail("ingest_wal: wal open failed");
      return;
    }
    std::vector<uint8_t> payload;
    uint64_t append_ns = 0;
    for (size_t i = 0; i < msgs.size(); ++i) {
      payload.clear();
      tsdm::EncodeTickPayload(msgs[i], &payload);
      const uint64_t a0 = NowNs();
      const tsdm::Status st = wal.Append(
          payload.data(), static_cast<uint32_t>(payload.size()));
      append_ns += NowNs() - a0;
      if (!st.ok()) {
        result->Fail("ingest_wal: wal append failed");
        return;
      }
      if ((i + 1) % 256 == 0) {
        const uint64_t y0 = NowNs();
        (void)wal.Sync();
        const uint64_t y1 = NowNs();
        buf->Add(spans->Name("probe/wal_sync"), i, 0, y0, y1);
        sync_us.push_back(1e-3 * static_cast<double>(y1 - y0));
      }
    }
    (void)wal.Close();
    append.push_back(static_cast<double>(append_ns) /
                     static_cast<double>(msgs.size()));
  }
  std::filesystem::remove_all(dir);
  result->Layer("ingest.parse_ns", Median(parse), "ns");
  result->Layer("ingest.process_ns", Median(process), "ns");
  result->Layer("ingest.wal_append_ns", Median(append), "ns");
  result->Layer("ingest.wal_sync_p99_us", Quantile(sync_us, 0.99), "us");
}

}  // namespace

RunResult RunIngestWal(const RunConfig& cfg, SpanLog* spans) {
  RunResult result;
  const std::vector<uint8_t> feed = MakeFeed(cfg.seed);
  const std::string dir = cfg.out_dir + "/ingest_wal";
  // Set-up: open the service on an empty log. Each round of the phase
  // repeats it, and every round's set-up joins the median.
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const uint64_t t0 = NowNs();
    auto service = OpenFresh(dir, &result);
    setups.push_back(1e-9 * static_cast<double>(NowNs() - t0));
    (void)service->Stop();
  }
  if (!result.check_failures.empty()) return result;

  RunPhases(cfg, spans, setups, [&](const Phase& phase) {
    RoundsRun run = RunRounds(feed, dir, phase, &result);
    if (phase.report) {
      result.Layer("recovery_s", Median(run.recovery_s), "s");
      result.Layer("ingest.recovery_mb_per_s", Median(run.recovery_mb_per_s),
                   "MB/s");
      result.Layer("ingest.rejected", static_cast<double>(run.rejected),
                   "count");
      result.notes.push_back("rounds: " + std::to_string(run.rounds) +
                             " of " + std::to_string(feed.size() /
                                                     tsdm::kTickFrameSize) +
                             " ticks, each followed by a restart and replay");
    }
    return run.out;
  }, &result);
  if (cfg.trace) ProbeLayers(feed, dir, spans, &result);
  return result;
}

}  // namespace perfbench
