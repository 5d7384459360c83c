#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "core/release_log.h"
#include "core/stream_engine.h"
#include "datagen/profiles.h"
#include "inference/breach_finder.h"
#include "metrics/auditor.h"
#include "metrics/sanitized_attack.h"
#include "oracle.h"
#include "persist/checkpoint.h"
#include "persist/serializer.h"
#include "service/engine_fleet.h"
#include "trace.h"

namespace perfbench {
namespace {

using butterfly::AttackConfig;
using butterfly::ButterflyConfig;
using butterfly::ButterflyScheme;
using butterfly::DatasetProfile;
using butterfly::EngineFleet;
using butterfly::EngineStats;
using butterfly::FleetConfig;
using butterfly::FleetStats;
using butterfly::IndexMemoryStats;
using butterfly::Itemset;
using butterfly::MiningOutput;
using butterfly::ReleasePolicyKind;
using butterfly::ReleaseResult;
using butterfly::SanitizedOutput;
using butterfly::Status;
using butterfly::StreamPrivacyEngine;
using butterfly::Transaction;
using Span = Tracer::Span;

constexpr double kMiB = 1024.0 * 1024.0;

/// Each workload draws its records from one fixed stream per profile (per
/// tenant in the fleet), so runs with different seeds sample the same
/// workload; the seed picks the starting point and the engine's noise seed.
constexpr uint64_t kDataSeed = 7;

// ---------------------------------------------------------------- input --

/// A generated stream, stored flat so the input's own footprint stays small
/// next to the engine's: item ids back to back plus one offset per record.
struct Stream {
  std::vector<Item> items;
  std::vector<uint32_t> offsets{0};

  size_t size() const { return offsets.size() - 1; }
  std::vector<Item> Items(size_t i) const {
    return {items.begin() + offsets[i], items.begin() + offsets[i + 1]};
  }
  /// Record i as the engine consumes it (tid = 1-based stream position).
  Transaction Record(size_t i) const {
    return Transaction(i + 1, Itemset::FromSorted(Items(i)));
  }
  size_t Bytes() const {
    return items.capacity() * sizeof(Item) + offsets.capacity() * sizeof(uint32_t);
  }
};

/// Where a run starts in its workload's stream: the run seed picks one of
/// 64 starting points 2 records apart. Runs overlap in almost all their
/// records on purpose: the cost of a window depends strongly on its
/// content, so seeds far apart in the stream would measure different work.
size_t StartOffset(uint64_t seed) { return static_cast<size_t>(seed % 64) * 2; }

/// Records [offset, offset + records) of the profile's stream drawn with
/// \p data_seed.
bool Generate(DatasetProfile profile, uint64_t data_seed, size_t offset,
              size_t records, Stream* out, std::vector<std::string>* errors) {
  auto data = butterfly::GenerateProfile(profile, offset + records, data_seed);
  if (!data.ok()) {
    errors->push_back("data generation failed: " + data.status().ToString());
    return false;
  }
  out->items.clear();
  out->offsets.assign(1, 0);
  out->offsets.reserve(records + 1);
  for (size_t i = offset; i < data->size(); ++i) {
    const Itemset& items = (*data)[i].items;
    out->items.insert(out->items.end(), items.begin(), items.end());
    out->offsets.push_back(static_cast<uint32_t>(out->items.size()));
  }
  out->items.shrink_to_fit();
  return true;
}

// ------------------------------------------------------------- helpers --

/// Resident set of this process in MiB.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

/// Taken at static initialisation, before main: setup_s runs from here.
const int64_t g_process_start_ns = NowNs();

/// Logs a phase boundary with the wall time since the process started.
void Phase(const char* what) {
  std::fprintf(stderr, "[%8.3f s] %s\n",
               static_cast<double>(NowNs() - g_process_start_ns) / 1e9, what);
}

/// Nearest-rank percentile of unsorted samples.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

/// The Butterfly parameters shared by every workload (K = 5, delta = 0.4,
/// hybrid scheme with lambda = 0.4); the workload sets H, C and epsilon.
ButterflyConfig BaseConfig(Support min_support, double epsilon, uint64_t seed) {
  ButterflyConfig config;
  config.min_support = min_support;
  config.vulnerable_support = 5;
  config.epsilon = epsilon;
  config.delta = 0.4;
  config.scheme = ButterflyScheme::kHybrid;
  config.lambda = 0.4;
  config.seed = 0x42u + seed;
  return config;
}

/// Every per-layer metric, in output order, with its unit. A layer the
/// workload does not run reports 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"moment.append_ns", "ns"},
      {"moment.expand_ns", "ns"},
      {"core.release_ns", "ns"},
      {"core.parallel_release_ns", "ns"},
      {"core.partition_ns", "ns"},
      {"core.bias_ns", "ns"},
      {"core.noise_ns", "ns"},
      {"core.emit_ns", "ns"},
      {"core.unattributed_ns", "ns"},
      {"core.bias_cache_hits", "count"},
      {"core.bias_memo_hits", "count"},
      {"core.bias_memo_misses", "count"},
      {"core.release_log_ns", "ns"},
      {"stream.index_bytes", "bytes"},
      {"stream.index_array_rows", "count"},
      {"stream.index_bitmap_rows", "count"},
      {"stream.index_run_rows", "count"},
      {"service.ingest_ns", "ns"},
      {"service.pump_ns", "ns"},
      {"service.stats_ns", "ns"},
      {"service.engine_release_p50_ns", "ns"},
      {"persist.checkpoint_ns", "ns"},
      {"persist.restore_ns", "ns"},
      {"metrics.audit_ns", "ns"},
      {"inference.breach_scan_ns", "ns"},
      {"metrics.interval_attack_ns", "ns"},
      {"inference.vulnerable_patterns", "count"},
      {"metrics.pinned_patterns", "count"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

/// Release latency (and, for the log, throughput) of consecutive
/// fixed-size slices of a run. A latency metric is the mean of its
/// per-slice percentiles: the host alternates between a quiet and a loaded
/// speed every few seconds, and a mean moves smoothly with the share of
/// loaded slices where a median jumps from one speed to the other.
struct Slices {
  size_t records_per_slice;
  int64_t slice_ns = 0;
  std::vector<double> open_latencies_ns;  ///< releases of the open slice
  std::vector<double> rates;              ///< records/s per slice
  std::vector<double> p50s_ns;            ///< latency p50 per slice
  std::vector<double> p90s_ns;            ///< latency p90 per slice
  size_t latency_samples = 0;

  /// A release of the open slice took \p ns.
  void AddLatency(double ns) {
    open_latencies_ns.push_back(ns);
    ++latency_samples;
  }

  /// Adds \p elapsed_ns of timed work; \p consumed counts records so far.
  void Add(int64_t elapsed_ns, size_t consumed) {
    slice_ns += elapsed_ns;
    if (consumed % records_per_slice != 0) return;
    rates.push_back(static_cast<double>(records_per_slice) * 1e9 /
                    static_cast<double>(slice_ns));
    if (!open_latencies_ns.empty()) {
      p50s_ns.push_back(Percentile(open_latencies_ns, 0.5));
      p90s_ns.push_back(Percentile(open_latencies_ns, 0.9));
    }
    open_latencies_ns.clear();
    slice_ns = 0;
  }
};

/// Everything a workload measured, before it is shaped into RunResult.
struct Measured {
  double setup_s = 0;
  double timed_s = 0;
  uint64_t records = 0;
  Slices slices{1};
  double peak_rss_mb = 0;
  double checkpoint_bytes = 0;
  double pred_sum = 0;
  size_t pred_releases = 0;
  double ropp_sum = 0;
  size_t ropp_releases = 0;
  std::map<std::string, double> layer;  ///< per-layer values by metric name
};

void AddChecker(const ReleaseChecker& checker, const std::string& who,
                Measured* m, std::vector<std::string>* errors) {
  m->pred_sum += checker.pred_sum();
  m->pred_releases += checker.pred_releases();
  m->ropp_sum += checker.ropp_sum();
  m->ropp_releases += checker.ropp_releases();
  if (checker.violations() > 0) {
    errors->push_back(who + ": " + std::to_string(checker.violations()) +
                      " property violations over " +
                      std::to_string(checker.checked()) + " releases");
    for (const std::string& v : checker.first_violations()) {
      errors->push_back(who + ": " + v);
    }
  }
}

/// Mean span durations by name, plus the self-time table on stderr and the
/// span file in the output directory.
void FinishTrace(const Tracer& tracer, const Options& options, Measured* m) {
  if (!tracer.enabled()) return;
  const auto totals = tracer.Summarize();
  std::fprintf(stderr, "%-26s %10s %14s %14s\n", "span", "count", "mean_ns",
               "self_mean_ns");
  for (const auto& [name, t] : totals) {
    std::fprintf(stderr, "%-26s %10llu %14.0f %14.0f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.MeanNs(),
                 t.MeanSelfNs());
  }
  auto mean = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.MeanNs();
  };
  for (const char* span :
       {"moment.append", "moment.expand", "core.release", "core.release_log",
        "service.pump", "service.stats", "persist.checkpoint",
        "persist.restore", "metrics.audit", "inference.breach_scan",
        "metrics.interval_attack"}) {
    if (totals.count(span)) m->layer[std::string(span) + "_ns"] = mean(span);
  }
  auto ingest = totals.find("service.ingest");
  if (ingest != totals.end() && m->records > 0) {
    m->layer["service.ingest_ns"] =
        ingest->second.total_ns / static_cast<double>(m->records);
  }
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
}

void Shape(const Options& options, const Measured& m, RunResult* out) {
  const double records_per_s =
      m.timed_s > 0 ? static_cast<double>(m.records) / m.timed_s : 0;
  out->end_to_end = {
      {"setup_s", m.setup_s, "s"},
      {"records_per_s", records_per_s, "records/s"},
      {"release_p50_ms", Mean(m.slices.p50s_ns) / 1e6, "ms"},
      {"release_p90_ms", Mean(m.slices.p90s_ns) / 1e6, "ms"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"checkpoint_bytes", m.checkpoint_bytes, "bytes"},
      {"avg_pred", m.pred_releases ? m.pred_sum / static_cast<double>(m.pred_releases) : 0,
       "ratio"},
      {"ropp", m.ropp_releases ? m.ropp_sum / static_cast<double>(m.ropp_releases) : 0,
       "ratio"},
  };
  std::map<std::string, double> layer = m.layer;
  if (options.trace) {
    if (options.baseline_records_per_s > 0 && records_per_s > 0) {
      layer["trace.overhead_pct"] =
          (options.baseline_records_per_s / records_per_s - 1) * 100;
      std::fprintf(stderr,
                   "tracing overhead: %.2f%% (untraced %.1f records/s, traced "
                   "%.1f records/s)\n",
                   layer["trace.overhead_pct"], options.baseline_records_per_s,
                   records_per_s);
    } else {
      std::fprintf(stderr, "tracing overhead: no untraced baseline given\n");
    }
  }
  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = layer.find(name);
    out->per_layer.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
  }
  std::fprintf(stderr,
               "%s seed %llu: %llu releases, %llu records in %.3f s timed, "
               "%zu latency samples in %zu slices\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(out->attempted),
               static_cast<unsigned long long>(m.records), m.timed_s,
               m.slices.latency_samples, m.slices.rates.size());
  std::fprintf(stderr, "slice records/s: p10 %.1f, p50 %.1f, p90 %.1f\n",
               Percentile(m.slices.rates, 0.1), Percentile(m.slices.rates, 0.5),
               Percentile(m.slices.rates, 0.9));
  if (m.slices.latency_samples < 100) {
    std::fprintf(stderr, "warning: fewer than 100 latency samples\n");
  }
}

/// 64-bit FNV-1a of one release: its log bytes, then the bias and variance
/// of each itemset (which the log does not carry). Two releases with the
/// same digest are taken to be the same release.
uint64_t ReleaseDigest(const std::string& bytes, const SanitizedOutput& output) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  };
  mix(bytes.data(), bytes.size());
  for (const butterfly::SanitizedItemset& item : output.items()) {
    mix(&item.bias, sizeof(item.bias));
    mix(&item.variance, sizeof(item.variance));
  }
  return h;
}

// ---------------------------------------------------------- solo engine --

struct SoloSpec {
  DatasetProfile profile;
  size_t window;
  Support min_support;
  double epsilon;
  size_t stride;
  /// Thread count of an untimed engine that replays the whole run and must
  /// write the timed serial engine's releases byte for byte; 1 = none.
  int64_t check_threads;
  bool hybrid_index;
  bool audit;
  /// Timed records per round, after the round's untimed first stride; a
  /// multiple of stride and slice_records.
  size_t round_records;
  /// Records per slice (latency metrics are means of per-slice percentiles).
  size_t slice_records;
};

std::string SoloLabel(size_t position) { return "w" + std::to_string(position); }

/// The calls one record makes on a solo engine, and the audit state they
/// carry from release to release.
struct SoloStep {
  const SoloSpec& spec;
  ButterflyConfig config;
  Tracer* tracer;
  bool audit;

  // The last release: its result, log bytes and write status.
  ReleaseResult result;
  std::ostringstream log;
  Status written;

  // The audit compares each release with the previous one.
  MiningOutput previous_raw;
  SanitizedOutput previous_release;
  bool have_previous = false;
  double vulnerable = 0;
  double pinned = 0;
  std::vector<std::string> audit_violations;

  /// A release is due once the window is full and every `stride` records
  /// after that; the first one (at position H) ends the set-up.
  bool Due(size_t position) const {
    return position >= spec.window && (position - spec.window) % spec.stride == 0;
  }

  /// Appends \p record, the stream's \p position-th; when that makes a
  /// release due, runs RawOutput, Release, the audit and WriteRelease.
  /// Returns whether it released.
  bool operator()(StreamPrivacyEngine* engine, Transaction record, size_t position) {
    const bool due = Due(position);
    std::optional<Span> release_span;
    if (due) release_span.emplace(tracer, "bench.release");
    {
      Span span(tracer, "moment.append");
      engine->Append(std::move(record));
    }
    if (!due) return false;
    MiningOutput raw;
    {
      Span span(tracer, "moment.expand");
      const MiningOutput& expanded = engine->RawOutput();
      if (audit) raw = expanded;  // the audit needs it after Release
    }
    {
      Span span(tracer, "core.release");
      result = engine->Release();
    }
    if (audit) Audit(std::move(raw));
    log.str("");
    Span span(tracer, "core.release_log");
    written = butterfly::WriteRelease(&log, SoloLabel(position), result.output);
    return true;
  }

  void Audit(MiningOutput raw) {
    if (tracer->enabled()) {
      // The audit's two expensive parts, called on their own so the trace
      // splits them; the oracle re-checks the rest of what it covers.
      Span span(tracer, "metrics.audit");
      AttackConfig attack;
      attack.vulnerable_support = config.vulnerable_support;
      std::vector<butterfly::InferredPattern> breaches;
      {
        Span scan(tracer, "inference.breach_scan");
        breaches = butterfly::FindIntraWindowBreaches(
            raw, result.output.window_size(), attack);
      }
      butterfly::SanitizedAttackReport report;
      {
        Span interval(tracer, "metrics.interval_attack");
        report = butterfly::AttackSanitizedRelease(
            result.output, butterfly::NoiseModel(config.delta, config.vulnerable_support),
            breaches);
      }
      vulnerable += static_cast<double>(breaches.size());
      pinned += static_cast<double>(report.residual_breaches);
    } else {
      butterfly::AuditReport report = butterfly::AuditRelease(
          raw, result.output, config, have_previous ? &previous_raw : nullptr,
          have_previous ? &previous_release : nullptr);
      vulnerable += static_cast<double>(report.vulnerable_patterns);
      for (const std::string& v : report.violations) {
        // A pinned pattern is a documented property of bounded noise, not
        // a release fault: count it, fail on everything else.
        if (v.find("provably pinned") != std::string::npos) {
          pinned += std::strtod(v.c_str(), nullptr);
        } else if (audit_violations.size() < 8) {
          audit_violations.push_back(v);
        }
      }
    }
    previous_raw = std::move(raw);
    previous_release = result.output;
    have_previous = true;
  }
};

/// Restores \p engine from the snapshot file at \p path; false on failure.
bool RestoreEngine(const std::string& path, Tracer* tracer,
                   std::optional<StreamPrivacyEngine>* engine,
                   std::vector<std::string>* errors) {
  engine->reset();
  butterfly::Result<std::string> bytes = butterfly::persist::ReadCheckpointFile(path);
  if (!bytes.ok()) {
    errors->push_back("snapshot: " + bytes.status().ToString());
    return false;
  }
  butterfly::persist::CheckpointReader reader(*bytes);
  butterfly::Result<StreamPrivacyEngine> restored = [&] {
    Span span(tracer, "persist.restore");
    return StreamPrivacyEngine::FromCheckpoint(&reader);
  }();
  if (!restored.ok()) {
    errors->push_back("restore: " + restored.status().ToString());
    return false;
  }
  engine->emplace(std::move(*restored));
  return true;
}

bool RunSolo(const SoloSpec& spec, const Options& options, RunResult* out) {
  Tracer tracer(options.trace);
  Tracer untraced(false);
  Measured m;
  ButterflyConfig config = BaseConfig(spec.min_support, spec.epsilon, options.seed);
  // The timed engine is serial: on a shared host a second thread's waits
  // measure the neighbours more than the engine (see README).
  config.threads = 1;
  config.hybrid_index = spec.hybrid_index;
  const size_t window = spec.window;
  const size_t first = window;  // the first record of a round
  const size_t timed_from = first + spec.stride;
  const size_t last = timed_from + spec.round_records;

  Stream stream;
  if (!Generate(spec.profile, kDataSeed, StartOffset(options.seed), last,
                &stream, &out->errors)) {
    return false;
  }
  malloc_trim(0);
  Phase("input generated");
  std::fprintf(stderr, "input: %zu records, %.2f MB\n", stream.size(),
               static_cast<double>(stream.Bytes()) / kMiB);

  // Set-up, timed from the process's start (so it includes generating the
  // input): construct the engine, fill the first window, emit its release.
  SoloStep step{spec, config, &tracer, spec.audit};
  auto created = StreamPrivacyEngine::Create(window, config);
  if (!created.ok()) {
    out->errors.push_back("engine: " + created.status().ToString());
    return false;
  }
  std::optional<StreamPrivacyEngine> engine(std::move(*created));
  for (size_t p = 0; p < window; ++p) step(&*engine, stream.Record(p), p + 1);
  m.setup_s = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;
  const ReleaseResult setup_result = step.result;
  const MiningOutput setup_raw = step.previous_raw;
  if (!step.written.ok()) out->errors.push_back("set-up WriteRelease failed");

  // The snapshot every later round starts from, parked in a file so it is
  // not part of the peak RSS.
  const std::string snapshot_path =
      options.out_dir + "/snapshot-" + options.workload + ".ckpt";
  {
    butterfly::persist::CheckpointWriter writer;
    {
      Span span(&tracer, "persist.checkpoint");
      engine->Checkpoint(&writer);
    }
    const Status saved =
        butterfly::persist::WriteCheckpointFile(snapshot_path, writer.data());
    if (!saved.ok()) {
      out->errors.push_back("snapshot: " + saved.ToString());
      return false;
    }
  }
  malloc_trim(0);

  // The closed loop, in whole rounds over the same records: round 0
  // continues the set-up engine, each later round restores the set-up
  // snapshot, so every round does the same work and must write the same
  // releases. A round's first stride is not timed: its release rebuilds
  // the caches a snapshot does not keep. Each record is fed when the
  // previous call returns.
  std::vector<uint64_t> digests{ReleaseDigest(step.log.str(), setup_result.output)};
  size_t rounds = 0;
  size_t mismatches = 0;
  size_t timed_releases = 0;
  double stage_sums[4] = {0, 0, 0, 0};
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  int64_t timed_ns = 0;
  m.slices = Slices{spec.slice_records};
  m.peak_rss_mb = RssMb();
  for (; timed_ns < budget_ns && engine.has_value(); ++rounds) {
    if (rounds > 0) {
      if (!RestoreEngine(snapshot_path, &tracer, &engine, &out->errors)) break;
      malloc_trim(0);
      step.previous_raw = setup_raw;
      step.previous_release = setup_result.output;
      step.have_previous = spec.audit;
    }
    size_t released = 0;
    for (size_t p = first; p < last; ++p) {
      const bool timed = p >= timed_from;
      step.tracer = timed ? &tracer : &untraced;
      Transaction record = stream.Record(p);
      const int64_t start = NowNs();
      const bool due = step(&*engine, std::move(record), p + 1);
      const int64_t elapsed = NowNs() - start;
      if (timed) {
        timed_ns += elapsed;
        ++m.records;
        if (due) m.slices.AddLatency(static_cast<double>(elapsed));
        m.slices.Add(elapsed, p + 1 - timed_from);
      }
      if (!due) continue;
      ++out->attempted;
      ++released;
      if (!step.written.ok()) ++out->failed;
      if (timed) {
        ++timed_releases;
        const EngineStats& s = step.result.stats;
        stage_sums[0] += s.partition_ns;
        stage_sums[1] += s.bias_ns;
        stage_sums[2] += s.noise_ns;
        stage_sums[3] += s.emit_ns;
      }
      const uint64_t digest = ReleaseDigest(step.log.str(), step.result.output);
      if (rounds == 0) {
        digests.push_back(digest);
      } else if (digest != digests[released]) {
        ++mismatches;
      }
      // Sampled in round 0 only: freeing a restore's snapshot buffer raises
      // glibc's mmap threshold, and the heap the later rounds leave
      // resident then measures the allocator, not the engine.
      if (rounds == 0) m.peak_rss_mb = std::max(m.peak_rss_mb, RssMb());
    }
    if (rounds == 0) {
      // The audit tallies and the snapshot size of one round: the same
      // numbers in every round.
      if (spec.audit) {
        m.layer["inference.vulnerable_patterns"] = step.vulnerable;
        m.layer["metrics.pinned_patterns"] = step.pinned;
      }
      butterfly::persist::CheckpointWriter writer;
      {
        Span span(&tracer, "persist.checkpoint");
        engine->Checkpoint(&writer);
      }
      m.checkpoint_bytes = static_cast<double>(writer.bytes());
    }
  }
  engine.reset();
  malloc_trim(0);
  Phase("timed loop done");
  m.timed_s = static_cast<double>(timed_ns) / 1e9;
  const size_t releases = digests.size() - 1;  // in round 0
  std::fprintf(stderr, "%zu rounds of %zu releases\n", rounds, releases);
  if (mismatches > 0) {
    out->errors.push_back(std::to_string(mismatches) +
                          " releases of restored rounds differ from round 0");
  }
  for (const std::string& v : step.audit_violations) {
    out->errors.push_back("audit: " + v);
  }

  // Oracle pass, untimed: restore the set-up snapshot once more and replay
  // round 0. Every release must match round 0's, so the oracle's verdict
  // covers every release of the run, and the restore is checked against
  // the engine that was never restored.
  WindowOracle oracle(window);
  ReleaseChecker checker(config, static_cast<Support>(window));
  for (size_t p = 0; p < window; ++p) oracle.Push(stream.Items(p));
  oracle.Scan(config.min_support);
  checker.Check(setup_result, oracle);
  std::optional<StreamPrivacyEngine> replay;
  RestoreEngine(snapshot_path, &untraced, &replay, &out->errors);
  std::filesystem::remove(snapshot_path);
  double cache_hits = 0;
  double itemset_sums = static_cast<double>(setup_result.stats.frequent_itemsets);
  EngineStats last_stats = setup_result.stats;
  if (replay.has_value()) {
    SoloStep replay_step{spec, config, &untraced, false};
    size_t released = 0;
    size_t diverged = 0;
    for (size_t p = first; p < last; ++p) {
      const bool due = replay_step(&*replay, stream.Record(p), p + 1);
      oracle.Push(stream.Items(p));
      if (!due) continue;
      ++released;
      const ReleaseResult& result = replay_step.result;
      if (ReleaseDigest(replay_step.log.str(), result.output) != digests[released]) {
        ++diverged;
      }
      oracle.Scan(config.min_support);
      checker.Check(result, oracle);
      cache_hits += result.stats.bias_cache_hit ? 1 : 0;
      itemset_sums += static_cast<double>(result.stats.frequent_itemsets);
      last_stats = result.stats;
    }
    if (diverged > 0) {
      out->errors.push_back("restored engine diverged from the original run in " +
                            std::to_string(diverged) + " releases");
    }
  }
  AddChecker(checker, "engine", &m, &out->errors);
  std::fprintf(stderr, "window shape: %.1f frequent itemsets per release\n",
               itemset_sums / static_cast<double>(releases + 1));

  // Determinism across thread counts: a parallel engine from the first
  // record writes round 0's releases. Its Release() calls over the timed
  // records are traced apart, as core.parallel_release_ns.
  Tracer parallel_tracer(options.trace);
  if (spec.check_threads != 1) {
    ButterflyConfig parallel = config;
    parallel.threads = spec.check_threads;
    StreamPrivacyEngine reference(window, parallel);
    SoloStep parallel_step{spec, parallel, &untraced, false};
    size_t released = 0;
    size_t diverged = 0;
    for (size_t p = 0; p < last; ++p) {
      parallel_step.tracer = p >= timed_from ? &parallel_tracer : &untraced;
      if (!parallel_step(&reference, stream.Record(p), p + 1)) continue;
      if (ReleaseDigest(parallel_step.log.str(), parallel_step.result.output) !=
          digests[released++]) {
        ++diverged;
      }
    }
    if (diverged > 0) {
      out->errors.push_back(std::to_string(spec.check_threads) +
                            "-thread engine differs from the serial engine in " +
                            std::to_string(diverged) + " releases");
    }
  }
  Phase("checks done");

  const double per_release = 1.0 / static_cast<double>(std::max<size_t>(timed_releases, 1));
  m.layer["core.partition_ns"] = stage_sums[0] * per_release;
  m.layer["core.bias_ns"] = stage_sums[1] * per_release;
  m.layer["core.noise_ns"] = stage_sums[2] * per_release;
  m.layer["core.emit_ns"] = stage_sums[3] * per_release;
  m.layer["core.bias_cache_hits"] = cache_hits;
  m.layer["core.bias_memo_hits"] = static_cast<double>(last_stats.bias_memo_hits);
  m.layer["core.bias_memo_misses"] = static_cast<double>(last_stats.bias_memo_misses);
  m.layer["stream.index_bytes"] = static_cast<double>(last_stats.index_bytes);
  m.layer["stream.index_array_rows"] = static_cast<double>(last_stats.index_array_rows);
  m.layer["stream.index_bitmap_rows"] = static_cast<double>(last_stats.index_bitmap_rows);
  m.layer["stream.index_run_rows"] = static_cast<double>(last_stats.index_run_rows);
  FinishTrace(tracer, options, &m);
  const auto parallel = parallel_tracer.Summarize();
  if (parallel.count("core.release")) {
    m.layer["core.parallel_release_ns"] = parallel.at("core.release").MeanNs();
  }
  if (m.layer.count("core.release_ns")) {
    m.layer["core.unattributed_ns"] =
        m.layer["core.release_ns"] - (stage_sums[0] + stage_sums[1] +
                                      stage_sums[2] + stage_sums[3]) * per_release;
  }
  Shape(options, m, out);
  return true;
}

// ---------------------------------------------------------------- fleet --

constexpr size_t kFleetTenants = 64;
constexpr size_t kFleetWindow = 500;
constexpr size_t kFleetStride = 50;
/// Timed strides per round, after the round's untimed first stride.
constexpr size_t kFleetRoundStrides = 100;
/// Strides per slice (latency metrics are means of per-slice percentiles).
constexpr size_t kFleetSliceStrides = 20;

/// Threads of the fleet the checks run: one per core.
int64_t CheckThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

/// The timed fleet pumps on the calling thread alone: with a pool, every
/// pump barrier waits for the slowest worker, and on a shared host that
/// worker's waits measure the neighbours (see README).
FleetConfig MakeFleetConfig(uint64_t seed) {
  FleetConfig config;
  config.tenants = kFleetTenants;
  config.threads = 1;
  config.shards = 1;
  config.window = kFleetWindow;
  config.stride = kFleetStride;
  config.engine = BaseConfig(15, 0.03, seed);
  config.engine.policy_epsilon = 1.0;
  config.engine.policy_top_k = 16;
  config.tenant_policies = {ReleasePolicyKind::kButterfly,
                            ReleasePolicyKind::kPrivBasis,
                            ReleasePolicyKind::kContinual,
                            ReleasePolicyKind::kHeavyHitter};
  return config;
}

/// Solo serial run of one tenant over its consumed records: the other side
/// of the fleet's byte-identity contract, and the source of the per-release
/// results the oracle checks (bias and variance are not in the log).
void CheckTenant(const FleetConfig& config, uint64_t tenant,
                 const Stream& stream, size_t consumed, const std::string& log,
                 ReleaseChecker* checker, std::string* error) {
  StreamPrivacyEngine engine(config.window,
                             butterfly::TenantEngineConfig(config, tenant));
  WindowOracle oracle(config.window);
  std::ostringstream out;
  size_t matched = 0;
  for (size_t p = 0; p < consumed; ++p) {
    engine.Append(stream.Record(p));
    oracle.Push(stream.Items(p));
    const size_t position = p + 1;
    if (position < config.window || (position - config.window) % config.stride != 0) {
      continue;
    }
    ReleaseResult result = engine.Release();
    out.str("");
    if (!butterfly::WriteRelease(&out, EngineFleet::ReleaseLabel(tenant, position),
                                 result.output)
             .ok()) {
      *error = "solo WriteRelease failed";
      return;
    }
    const std::string bytes = out.str();
    if (log.compare(matched, bytes.size(), bytes) != 0) {
      *error = "log differs from the solo serial run at position " +
               std::to_string(position);
      return;
    }
    matched += bytes.size();
    oracle.Scan(engine.config().min_support);
    checker->Check(result, oracle);
  }
  if (matched != log.size()) *error = "fleet log has releases the solo run lacks";
}

bool RunFleet(const Options& options, RunResult* out) {
  Tracer tracer(options.trace);
  Measured m;
  const FleetConfig config = MakeFleetConfig(options.seed);
  const size_t round_records = (1 + kFleetRoundStrides) * kFleetStride;
  std::vector<Stream> streams(kFleetTenants);
  for (size_t t = 0; t < kFleetTenants; ++t) {
    if (!Generate(DatasetProfile::kBmsWebView1, kDataSeed + 1000 * (t + 1),
                  StartOffset(options.seed), kFleetWindow + round_records,
                  &streams[t], &out->errors)) {
      return false;
    }
  }
  malloc_trim(0);
  Phase("input generated");
  size_t input_bytes = 0;
  for (const Stream& s : streams) input_bytes += s.Bytes();
  std::fprintf(stderr, "input: %zu tenants x %zu records, %.2f MB; %lld thread(s)\n",
               kFleetTenants, streams[0].size(),
               static_cast<double>(input_bytes) / kMiB,
               static_cast<long long>(config.threads));
  // The set-up snapshot every later round restores, and the round-robin
  // snapshots the loop writes.
  const std::string start_dir = options.out_dir + "/fleet-start";
  const std::string snapshot_dir = options.out_dir + "/fleet-snapshots";
  for (const std::string& dir : {start_dir, snapshot_dir}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }

  // Set-up, timed from the process's start (so it includes generating the
  // input): construct the fleet, fill every tenant's first window and pump
  // (which emits each tenant's first release).
  auto created = EngineFleet::Create(config);
  if (!created.ok()) {
    out->errors.push_back("fleet: " + created.status().ToString());
    return false;
  }
  std::optional<EngineFleet> fleet(std::move(*created));
  for (size_t t = 0; t < kFleetTenants; ++t) {
    for (size_t p = 0; p < kFleetWindow; ++p) {
      if (!fleet->Ingest(t, streams[t].Record(p)).ok()) ++out->failed;
    }
  }
  fleet->Pump();
  m.setup_s = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;
  std::vector<std::string> logs(kFleetTenants);  // set-up, then round 0
  for (size_t t = 0; t < kFleetTenants; ++t) {
    logs[t] = fleet->ReleaseLog(t);
    if (!fleet->CheckpointNextTenant(start_dir).ok()) {
      out->errors.push_back("set-up snapshot of tenant " + std::to_string(t) + " failed");
      return false;
    }
  }
  const std::vector<std::string> setup_logs = logs;

  // The closed loop, in whole rounds over the same strides: round 0
  // continues the set-up fleet, each later round restores the set-up
  // snapshots into a new fleet, so every round does the same work and must
  // write the same releases. A round's first stride is not timed: its pump
  // rebuilds the caches a snapshot does not keep.
  Tracer untraced(false);
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  int64_t timed_ns = 0;
  size_t rounds = 0;
  size_t diverged = 0;
  FleetStats round0_stats;
  IndexMemoryStats index;
  m.slices = Slices{kFleetSliceStrides * kFleetStride * kFleetTenants};
  std::vector<std::vector<Transaction>> batch(kFleetTenants);
  m.peak_rss_mb = RssMb();
  for (; timed_ns < budget_ns; ++rounds) {
    if (rounds > 0) {
      fleet.reset();
      auto next = EngineFleet::Create(config);
      if (!next.ok()) {
        out->errors.push_back("fleet: " + next.status().ToString());
        break;
      }
      fleet.emplace(std::move(*next));
      Status restored;
      {
        Span span(&tracer, "persist.restore");
        restored = fleet->RestoreTenants(start_dir);
      }
      if (!restored.ok()) {
        out->errors.push_back("RestoreTenants: " + restored.ToString());
        break;
      }
      malloc_trim(0);
    }
    FleetStats stats;
    for (size_t s = 0; s <= kFleetRoundStrides; ++s) {
      const bool timed = s > 0;
      Tracer* trace = timed ? &tracer : &untraced;
      const size_t begin = kFleetWindow + s * kFleetStride;
      for (size_t t = 0; t < kFleetTenants; ++t) {
        batch[t].clear();
        for (size_t p = begin; p < begin + kFleetStride; ++p) {
          batch[t].push_back(streams[t].Record(p));
        }
      }
      const int64_t start = NowNs();
      int64_t pumped_ns = 0;
      {
        Span stride_span(trace, "bench.stride");
        {
          Span span(trace, "service.ingest");
          for (size_t t = 0; t < kFleetTenants; ++t) {
            for (Transaction& record : batch[t]) {
              if (!fleet->Ingest(t, std::move(record)).ok()) ++out->failed;
            }
          }
        }
        const int64_t ingested = NowNs();
        size_t released = 0;
        {
          Span span(trace, "service.pump");
          released = fleet->Pump();
        }
        pumped_ns = NowNs() - ingested;
        out->attempted += released;
        {
          Span span(trace, "service.stats");
          stats = fleet->Stats();
        }
        {
          Span span(trace, "persist.checkpoint");
          if (!fleet->CheckpointNextTenant(snapshot_dir).ok()) ++out->failed;
        }
      }
      const int64_t elapsed = NowNs() - start;
      if (!timed) continue;
      m.slices.AddLatency(static_cast<double>(pumped_ns));
      timed_ns += elapsed;
      m.records += kFleetStride * kFleetTenants;
      m.slices.Add(elapsed, s * kFleetStride * kFleetTenants);
      if (rounds == 0) m.peak_rss_mb = std::max(m.peak_rss_mb, RssMb());  // as solo
    }
    for (size_t t = 0; t < kFleetTenants; ++t) {
      const std::string& log = fleet->ReleaseLog(t);
      if (rounds == 0) {
        logs[t] = log;
      } else if (log.size() != logs[t].size() - setup_logs[t].size() ||
                 logs[t].compare(setup_logs[t].size(), log.size(), log) != 0) {
        ++diverged;
      }
    }
    if (rounds == 0) {
      // The snapshot size and index shape at the end of one round: the same
      // in every round.
      round0_stats = stats;
      for (size_t t = 0; t < kFleetTenants; ++t) {
        butterfly::persist::CheckpointWriter writer;
        fleet->engine(t).Checkpoint(&writer);
        m.checkpoint_bytes += static_cast<double>(writer.bytes());
        const IndexMemoryStats s = fleet->engine(t).miner().bitmap_index().MemoryStats();
        index.index_bytes += s.index_bytes;
        index.array_rows += s.array_rows;
        index.bitmap_rows += s.bitmap_rows;
        index.run_rows += s.run_rows;
      }
    }
  }
  Phase("timed loop done");
  std::fprintf(stderr, "%zu rounds of %zu strides\n", rounds, kFleetRoundStrides + 1);
  m.timed_s = static_cast<double>(timed_ns) / 1e9;
  if (diverged > 0) {
    out->errors.push_back(std::to_string(diverged) +
                          " tenant logs of restored rounds differ from round 0");
  }

  // Every tenant's log against its solo serial run, checking each release
  // with the oracle on the way. The solo runs are independent, so they run
  // on one thread per core.
  const size_t consumed = kFleetWindow + round_records;
  std::vector<ReleaseChecker> checkers;
  for (size_t t = 0; t < kFleetTenants; ++t) {
    checkers.emplace_back(butterfly::TenantEngineConfig(config, t),
                          static_cast<Support>(kFleetWindow));
  }
  std::vector<std::string> tenant_errors(kFleetTenants);
  std::atomic<size_t> next_tenant{0};
  auto check_tenants = [&] {
    for (size_t t = next_tenant++; t < kFleetTenants; t = next_tenant++) {
      CheckTenant(config, t, streams[t], consumed, logs[t], &checkers[t],
                  &tenant_errors[t]);
    }
  };
  {
    std::vector<std::thread> workers;
    for (int64_t w = 1; w < CheckThreads(); ++w) workers.emplace_back(check_tenants);
    check_tenants();
    for (std::thread& worker : workers) worker.join();
  }
  for (size_t t = 0; t < kFleetTenants; ++t) {
    const std::string who =
        "tenant " + std::to_string(t) + " (" +
        butterfly::ReleasePolicyName(butterfly::TenantEngineConfig(config, t).policy) + ")";
    if (!tenant_errors[t].empty()) out->errors.push_back(who + ": " + tenant_errors[t]);
    AddChecker(checkers[t], who, &m, &out->errors);
  }
  Phase("solo replays checked");

  // Restore the round-robin snapshots (each tenant's latest, from whichever
  // round wrote it) into a fresh fleet with one thread and shard per core,
  // and finish round 0's records: every tenant must continue with round
  // 0's bytes, so the parallel pump is held to the serial one too.
  fleet.reset();
  FleetConfig parallel = config;
  parallel.threads = CheckThreads();
  parallel.shards = static_cast<size_t>(parallel.threads);
  auto second = EngineFleet::Create(parallel);
  if (!second.ok()) {
    out->errors.push_back("fleet: " + second.status().ToString());
  } else {
    Status restored = second->RestoreTenants(snapshot_dir);
    if (!restored.ok()) {
      out->errors.push_back("RestoreTenants: " + restored.ToString());
    } else {
      for (size_t t = 0; t < kFleetTenants; ++t) {
        for (size_t p = second->StreamPosition(t); p < consumed; ++p) {
          if (!second->Ingest(t, streams[t].Record(p)).ok()) ++out->failed;
        }
      }
      second->Pump();
      for (size_t t = 0; t < kFleetTenants; ++t) {
        const std::string& resumed = second->ReleaseLog(t);
        if (resumed.size() > logs[t].size() ||
            logs[t].compare(logs[t].size() - resumed.size(), resumed.size(),
                            resumed) != 0) {
          out->errors.push_back("tenant " + std::to_string(t) +
                                ": restored fleet diverged");
        }
      }
    }
  }
  std::filesystem::remove_all(start_dir);
  std::filesystem::remove_all(snapshot_dir);

  const FleetStats& stats = round0_stats;
  const double releases = static_cast<double>(std::max<uint64_t>(stats.releases, 1));
  m.layer["moment.append_ns"] =
      stats.ingested ? stats.mine_ns / static_cast<double>(stats.ingested) : 0;
  m.layer["core.partition_ns"] = stats.partition_ns / releases;
  m.layer["core.bias_ns"] = stats.bias_ns / releases;
  m.layer["core.noise_ns"] = stats.noise_ns / releases;
  m.layer["core.emit_ns"] = stats.emit_ns / releases;
  m.layer["core.bias_memo_hits"] = static_cast<double>(stats.bias_memo_hits);
  m.layer["core.bias_memo_misses"] = static_cast<double>(stats.bias_memo_misses);
  m.layer["service.engine_release_p50_ns"] = stats.release_p50_ns;
  m.layer["stream.index_bytes"] = static_cast<double>(index.index_bytes);
  m.layer["stream.index_array_rows"] = static_cast<double>(index.array_rows);
  m.layer["stream.index_bitmap_rows"] = static_cast<double>(index.bitmap_rows);
  m.layer["stream.index_run_rows"] = static_cast<double>(index.run_rows);
  Phase("checks done");
  FinishTrace(tracer, options, &m);
  Shape(options, m, out);
  return true;
}

// ------------------------------------------------------------ registry --

const SoloSpec kReleaseDense = {DatasetProfile::kBmsWebView1,
                                /*window=*/5000, /*min_support=*/10,
                                /*epsilon=*/0.08, /*stride=*/5,
                                /*check_threads=*/2, /*hybrid_index=*/false,
                                /*audit=*/false, /*round_records=*/5000,
                                /*slice_records=*/1000};
const SoloSpec kMineWebscale = {DatasetProfile::kWebScale1M,
                                /*window=*/5000, /*min_support=*/25,
                                /*epsilon=*/0.016, /*stride=*/100,
                                /*check_threads=*/1, /*hybrid_index=*/true,
                                /*audit=*/false, /*round_records=*/4000,
                                /*slice_records=*/2000};
const SoloSpec kAuditedRelease = {DatasetProfile::kBmsWebView1,
                                  /*window=*/2000, /*min_support=*/25,
                                  /*epsilon=*/0.016, /*stride=*/10,
                                  /*check_threads=*/1, /*hybrid_index=*/false,
                                  /*audit=*/true, /*round_records=*/2000,
                                  /*slice_records=*/1000};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "release-dense", "mine-webscale", "fleet-mixed", "audited-release"};
  return names;
}

bool RunWorkload(const Options& options, RunResult* result) {
  if (options.workload == "release-dense") {
    return RunSolo(kReleaseDense, options, result);
  }
  if (options.workload == "mine-webscale") {
    return RunSolo(kMineWebscale, options, result);
  }
  if (options.workload == "fleet-mixed") return RunFleet(options, result);
  if (options.workload == "audited-release") {
    return RunSolo(kAuditedRelease, options, result);
  }
  return false;
}

}  // namespace perfbench
