// The four workloads: inputs from the seed, set-up (timed several times),
// the timed query phase, the correctness gate, and the traced pass that
// yields the per-layer metrics.
#include <algorithm>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "hydrabench.h"
#include "io/series_file.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/backend.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace hydrabench {

namespace {

using hydra::core::Dataset;
using hydra::core::Neighbor;
using hydra::core::QuerySpec;
using hydra::core::SearchMethod;
using hydra::core::SearchStats;
using hydra::util::Mean;
using hydra::util::Quantile;
using hydra::util::WallTimer;

constexpr size_t kK = 10;
/// Set-ups per untraced run, whose median is setup_s: at least three, and
/// more while they add up to under two seconds, so a set-up of a tenth of
/// a second is not left to three noisy samples.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 20;
constexpr double kSetupSeconds = 2.0;
/// The smallest timed request count of a full-scale run: p95 then has at
/// least ten samples beyond it.
constexpr size_t kMinRequests = 200;
/// serve-mix: server workers, closed-loop clients, epsilon, and the
/// request mix in percent (new exact, repeated exact, epsilon, ng).
constexpr size_t kServeThreads = 4;
constexpr size_t kClients = 4;
constexpr double kEpsilon = 0.5;
constexpr int kNewPct = 60;
constexpr int kRepeatPct = 25;
constexpr int kEpsilonPct = 10;
/// serve-mix: requests between two index reloads; the traced run, which
/// issues only a few hundred requests, reloads more often so that it
/// times some reloads too.
constexpr size_t kReloadEvery = 500;
constexpr size_t kTracedReloadEvery = 100;
/// Largest allowed gap between the achieved and the scheduled cache-hit
/// ratio of serve-mix.
constexpr double kHitRatioSlack = 0.02;
/// Requests of a traced phase at most.
constexpr size_t kMaxTracedRequests = 600;
/// serve-mix traces 4 slices of 50 requests, each after an untraced one:
/// its rings must hold every traced span until the end (about 3,500 per
/// executed request), so it traces fewer requests.
constexpr size_t kServeSlice = 50;
constexpr size_t kServeTracedSlices = 4;

/// Half the sizes the benchmark was specified with, ratios kept (see
/// README.md): at full size a run does not fit the benchmark's time budget.
/// mem-sharded replaces the specified mem-parallel, whose threaded runs
/// drifted past the bounds between sets on a shared host.
const std::vector<WorkloadConfig>& Table() {
  static const std::vector<WorkloadConfig> table = {
      {.name = "mem-dstree", .method = "DSTree", .count = 100000,
       .length = 256, .query_pool = 600},
      {.name = "mem-sharded", .method = "DSTree", .count = 100000,
       .length = 256, .shards = 2, .query_pool = 600},
      {.name = "disk-dstree", .method = "DSTree", .count = 12500,
       .length = 256, .pool_fraction = 1.0 / 6.0, .query_pool = 400},
      {.name = "serve-mix", .method = "iSAX2+", .count = 50000,
       .length = 256, .serve = true, .query_pool = 16000},
  };
  return table;
}

/// splitmix64: a per-slot hash so the serve-mix schedule is a pure
/// function of (seed, slot), whichever client takes the slot.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t QuerySeed(uint64_t seed) { return Mix(seed ^ 0x51ULL) % 1000000007; }

// ------------------------------------------------------------------ inputs

/// The run's inputs: the data file on disk and the query pool (Synth-Ctrl
/// queries, noise graded 0.01 -> 1.0, issued in a seeded shuffled order so
/// any prefix mixes easy and hard queries).
struct Inputs {
  std::string data_path;
  Dataset queries;
  std::string ref_key;
};

Inputs MakeInputs(const WorkloadConfig& config, const Options& options,
                  Outcome* out) {
  Inputs in;
  in.data_path = options.work_dir + "/data.bin";
  const Dataset data = hydra::gen::MakeDataset("synth", config.count,
                                               config.length, options.seed);
  const hydra::util::Status written =
      hydra::io::WriteSeriesFile(in.data_path, data);
  HYDRA_CHECK_MSG(written.ok(), "cannot write the benchmark data file");
  const uint64_t query_seed = QuerySeed(options.seed);
  out->record["query_seed"] = std::to_string(query_seed);
  const hydra::gen::Workload ctrl =
      hydra::gen::CtrlWorkload(data, config.query_pool, query_seed);
  std::vector<size_t> order(config.query_pool);
  std::iota(order.begin(), order.end(), 0);
  hydra::util::Rng rng(query_seed + 1);
  std::shuffle(order.begin(), order.end(), rng.engine());
  in.queries = Dataset("queries", config.length);
  for (const size_t i : order) in.queries.Append(ctrl.queries[i]);
  char key[200];
  std::snprintf(key, sizeof(key),
                "synth-%zux%zu-s%" PRIu64 "-q%zu-k%zu-d%016" PRIx64
                "-p%016" PRIx64,
                config.count, config.length, options.seed, config.query_pool,
                kK, ContentHash(data), ContentHash(in.queries));
  in.ref_key = key;
  return in;
}

// ------------------------------------------------------------------- setup

/// Everything between the data file and the first query.
struct Ready {
  std::unique_ptr<hydra::storage::StorageHandle> storage;
  std::shared_ptr<SearchMethod> method;
  std::unique_ptr<hydra::serve::Server> server;
  int64_t saved_bytes = 0;
};

std::shared_ptr<SearchMethod> NewMethod(const WorkloadConfig& config) {
  if (config.shards == 0) return hydra::bench::CreateMethod(config.method);
  return hydra::bench::CreateShardedMethod(config.method, config.shards,
                                           /*threads=*/1);
}

/// One set-up; returns its wall time (storage open + Build, plus Save and
/// Server::Start on serve-mix).
double SetupOnce(const WorkloadConfig& config, const Options& options,
                 const Inputs& in, Ready* ready) {
  ready->server.reset();
  ready->method.reset();
  ready->storage.reset();
  WallTimer total;
  hydra::storage::StorageOptions storage_options;
  if (config.pool_fraction > 0.0) {
    storage_options.backend = hydra::storage::StorageBackend::kMmap;
    const auto file_bytes = static_cast<double>(
        config.count * config.length * sizeof(hydra::core::Value));
    storage_options.pool.budget_bytes =
        static_cast<size_t>(file_bytes * config.pool_fraction);
    if (options.tiny) {
      // Keep the full-scale ratio of four pages per pool.
      storage_options.pool.page_bytes = storage_options.pool.budget_bytes / 4;
    }
  }
  {
    HYDRA_OBS_SPAN("bench.storage_open");
    auto opened = hydra::storage::StorageHandle::Open(in.data_path, "bench",
                                                      storage_options);
    HYDRA_CHECK_MSG(opened.ok(), "cannot open the benchmark data file");
    ready->storage = std::make_unique<hydra::storage::StorageHandle>(
        std::move(opened).value());
  }
  ready->method = NewMethod(config);
  {
    HYDRA_OBS_SPAN("bench.build");
    ready->method->Build(ready->storage->dataset());
  }
  if (config.serve) {
    {
      HYDRA_OBS_SPAN("bench.save");
      auto saved = ready->method->Save(options.work_dir + "/index");
      HYDRA_CHECK_MSG(saved.ok(), "cannot save the serve-mix index");
      ready->saved_bytes = saved.value();
    }
    HYDRA_OBS_SPAN("bench.server_start");
    hydra::serve::ServerOptions server_options;
    server_options.serve_threads = kServeThreads;
    ready->server = std::make_unique<hydra::serve::Server>(server_options);
    const hydra::util::Status started =
        ready->server->Start(ready->method, &ready->storage->dataset());
    HYDRA_CHECK_MSG(started.ok(), "cannot start the serve-mix server");
  }
  return total.Seconds();
}

/// Sets up repeatedly (see kMinSetups), keeping the last; returns the
/// median time and records the repeat count.
double Setup(const WorkloadConfig& config, const Options& options,
             const Inputs& in, Ready* ready, Outcome* out) {
  const size_t min_setups = options.tiny ? 1 : kMinSetups;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < min_setups ||
         (total < kSetupSeconds && times.size() < kMaxSetups)) {
    times.push_back(SetupOnce(config, options, in, ready));
    total += times.back();
  }
  out->record["setups"] = std::to_string(times.size());
  return Quantile(times, 0.5);
}

/// Collects and clears every tracer ring into `fold`; returns the events
/// lost to ring wraparound.
uint64_t Drain(TraceFold* fold) {
  std::vector<hydra::obs::CollectedEvent> events;
  const auto collected = hydra::obs::Tracer::Get().Collect(&events);
  hydra::obs::Tracer::Get().Clear();
  fold->Add(events);
  return collected.dropped;
}

/// One traced set-up with rings of `capacity`; its span sums give the
/// set-up layer metrics.
uint64_t TracedSetup(const WorkloadConfig& config, const Options& options,
                     const Inputs& in, size_t capacity, Ready* ready,
                     Outcome* out) {
  auto& tracer = hydra::obs::Tracer::Get();
  tracer.Enable(capacity);
  SetupOnce(config, options, in, ready);
  tracer.Disable();
  TraceFold setup;
  const uint64_t dropped = Drain(&setup);
  out->Set("storage.open_s", setup.total_ms("bench.storage_open") / 1e3, "s");
  out->Set("index.build_s", setup.total_ms("bench.build") / 1e3, "s");
  out->Set("io.index_save_s", setup.total_ms("bench.save") / 1e3, "s");
  out->Set("io.index_mb", static_cast<double>(ready->saved_bytes) / 1e6, "MB");
  return dropped;
}

// ------------------------------------------------------ library workloads

struct LibRequest {
  size_t query = 0;
  double latency_s = 0.0;
  std::vector<Neighbor> answer;
  SearchStats stats;
};

struct LibPhase {
  std::vector<LibRequest> requests;
  double wall_s = 0.0;
};

LibRequest ExecuteOne(SearchMethod* method, const Dataset& pool,
                      size_t query, const QuerySpec& spec) {
  LibRequest r;
  r.query = query;
  hydra::core::QueryResult result;
  WallTimer t;
  {
    HYDRA_OBS_SPAN("bench.execute");
    result = method->Execute(pool[query], spec);
  }
  r.latency_s = t.Seconds();
  r.answer = std::move(result.neighbors);
  r.stats = result.stats;
  return r;
}

/// Closed loop, one caller: Execute over the query pool in order, cycling,
/// until `seconds` have passed and `min_requests` were issued.
LibPhase LibraryLoop(SearchMethod* method, const Dataset& pool,
                     const QuerySpec& spec, double seconds,
                     size_t min_requests) {
  LibPhase out;
  WallTimer phase;
  while (out.requests.size() < min_requests || phase.Seconds() < seconds) {
    out.requests.push_back(ExecuteOne(method, pool,
                                      out.requests.size() % pool.size(), spec));
  }
  out.wall_s = phase.Seconds();
  return out;
}

/// The traced pass: each request runs untraced and traced back to back,
/// so a drift in machine speed hits both sides of the overhead ratio
/// alike; which side runs first alternates, so the second run's warm
/// caches favour neither. Each traced request is drained into `fold` on
/// its own.
void TracedLoop(SearchMethod* method, const Dataset& pool,
                const QuerySpec& spec, double seconds, size_t capacity,
                LibPhase* untraced, LibPhase* traced, TraceFold* fold,
                uint64_t* dropped) {
  auto& tracer = hydra::obs::Tracer::Get();
  auto run_traced = [&](size_t query) {
    tracer.Enable(capacity);
    traced->requests.push_back(ExecuteOne(method, pool, query, spec));
    tracer.Disable();
    *dropped += Drain(fold);
  };
  WallTimer phase;
  for (size_t i = 0; i < kMaxTracedRequests && phase.Seconds() < seconds;
       ++i) {
    const size_t query = i % pool.size();
    if (i % 2 == 1) run_traced(query);
    untraced->requests.push_back(ExecuteOne(method, pool, query, spec));
    if (i % 2 == 0) run_traced(query);
  }
}

/// Alters two exact answers for the self-test: `a`'s nearest distance, and
/// `b`'s nearest id (keeping its distance). The gate must fail both.
void Tamper(std::vector<Neighbor>* a, std::vector<Neighbor>* b) {
  HYDRA_CHECK_MSG(!a->empty() && !b->empty(), "nothing to tamper with");
  (*a)[0].dist_sq += 1.0;
  (*b)[0].id += 1;
}

/// The exactness gate over library answers; returns the failures and adds
/// each answer's recall to `recalls`.
int64_t CheckLibrary(const std::vector<LibRequest>& requests,
                     const ReferenceStore& refs, const Dataset& data,
                     const Dataset& pool, std::vector<double>* recalls,
                     std::vector<std::string>* notes) {
  int64_t failed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& truth = refs.truth(requests[i].query);
    recalls->push_back(hydra::core::RecallAtK(requests[i].answer, truth, kK));
    if (!SameExactAnswer(requests[i].answer, truth, data,
                         pool[requests[i].query])) {
      ++failed;
      if (failed <= 3) {
        notes->push_back("exact mismatch: request " + std::to_string(i) +
                         " query " + std::to_string(requests[i].query));
      }
    }
  }
  return failed;
}

/// Per-query means of the index ledger and the measured pool counters.
void LedgerMetrics(const std::vector<SearchStats>& stats, size_t series,
                   Outcome* out) {
  SearchStats sum;
  for (const SearchStats& s : stats) sum.Add(s);
  const double n = std::max<double>(1.0, static_cast<double>(stats.size()));
  out->Set("index.nodes_per_q", static_cast<double>(sum.nodes_visited) / n,
           "count");
  out->Set("index.lb_per_q",
           static_cast<double>(sum.lower_bound_computations) / n, "count");
  out->Set("index.raw_per_q", static_cast<double>(sum.raw_series_examined) / n,
           "count");
  out->Set("index.dist_per_q",
           static_cast<double>(sum.distance_computations) / n, "count");
  out->Set("index.pruning_ratio",
           1.0 - static_cast<double>(sum.raw_series_examined) /
                     (n * static_cast<double>(series)),
           "ratio");
  const double lookups = static_cast<double>(sum.pool_hits + sum.pool_misses);
  out->Set("storage.pool_misses_per_q",
           static_cast<double>(sum.pool_misses) / n, "count");
  out->Set("storage.pool_hit_ratio",
           lookups == 0 ? 0.0 : static_cast<double>(sum.pool_hits) / lookups,
           "ratio");
  out->Set("storage.pread_mb_per_q",
           static_cast<double>(sum.pool_bytes_read) / 1e6 / n, "MB");
  out->Set("storage.misses_per_modeled_seek",
           sum.random_seeks == 0 ? 0.0
                                 : static_cast<double>(sum.pool_misses) /
                                       static_cast<double>(sum.random_seeks),
           "ratio");
}

/// Span-derived per-layer metrics; `queries` is the traced request count.
void SpanMetrics(const TraceFold& fold, double queries, Outcome* out) {
  const double n = std::max(1.0, queries);
  out->Set("core.traversal_self_ms_per_q", fold.self_ms("traversal") / n,
           "ms");
  out->Set("core.leaf_verify_ms_per_q", fold.self_ms("leaf_verify") / n, "ms");
  const double unattributed_ms = fold.self_ms("execute");
  out->Set("core.execute_unattributed_ms_per_q", unattributed_ms / n, "ms");
  out->Set("shard.search_ms_per_q", fold.self_ms("shard_search") / n, "ms");
  out->Set("shard.merge_ms_per_q", fold.self_ms("shard_merge") / n, "ms");
  out->Set("shard.imbalance", fold.shard_imbalance(), "ratio");
  out->Set("storage.miss_pread_ms_per_q", fold.total_ms("pool_miss_pread") / n,
           "ms");
  out->Set("storage.pool_wait_ms_per_q", fold.total_ms("pool_wait") / n, "ms");
  const double execute_ms = fold.total_ms("execute");
  const double unattributed =
      execute_ms == 0 ? 0.0 : unattributed_ms / execute_ms;
  out->Set("obs.unattributed_frac", unattributed, "ratio");
  char line[128];
  std::snprintf(line, sizeof(line),
                "unattributed: %.2f%% of execute time (%.4f ms per query)",
                100.0 * unattributed, unattributed_ms / n);
  out->notes.push_back(line);
}

/// The serve-only per-layer metrics, zero where the workload has no
/// server (every per-layer metric is reported on every workload).
void ZeroServeMetrics(Outcome* out) {
  out->Set("serve.server_p50_ms", 0.0, "ms");
  out->Set("serve.transport_p50_ms", 0.0, "ms");
  out->Set("serve.request_self_ms_per_q", 0.0, "ms");
  out->Set("serve.reload_s", 0.0, "s");
  out->Set("serve.cache_hit_ratio", 0.0, "ratio");
  out->Set("serve.rejected", 0.0, "count");
  out->Set("io.index_open_s", 0.0, "s");
}

void RunLibrary(const WorkloadConfig& config, const Options& options,
                const Inputs& in, Outcome* out) {
  const QuerySpec spec = QuerySpec::Knn(kK);
  const size_t min_requests = options.tiny ? 20 : kMinRequests;
  Ready ready;
  LibPhase timed;
  LibPhase traced;
  TraceFold fold;
  uint64_t dropped = 0;
  double setup_s = 0.0;

  if (!options.trace) {
    setup_s = Setup(config, options, in, &ready, out);
    timed = LibraryLoop(ready.method.get(), in.queries, spec, options.seconds,
                        min_requests);
    out->Set("peak_rss_mb", PeakRssMib(), "MiB");
  } else {
    // A ring holds one whole request: hundreds of leaf spans, plus pool
    // spans on disk-dstree.
    const size_t capacity = size_t{1} << 15;
    dropped += TracedSetup(config, options, in, capacity, &ready, out);
    TracedLoop(ready.method.get(), in.queries, spec, options.seconds,
               capacity, &timed, &traced, &fold, &dropped);
  }

  // The gate, outside timing.
  WallTimer check_timer;
  ReferenceStore refs(options.cache_dir, in.ref_key, kK);
  refs.Ensure(ready.storage->dataset(), in.queries,
              std::min(in.queries.size(), timed.requests.size()));
  if (options.tamper) {
    HYDRA_CHECK_MSG(timed.requests.size() >= 2, "too few answers to tamper");
    Tamper(&timed.requests[0].answer, &timed.requests[1].answer);
  }
  const Dataset& data = ready.storage->dataset();
  std::vector<double> recalls;
  out->failed = CheckLibrary(timed.requests, refs, data, in.queries, &recalls,
                             &out->notes) +
                CheckLibrary(traced.requests, refs, data, in.queries,
                             &recalls, &out->notes);
  out->attempted =
      static_cast<int64_t>(timed.requests.size() + traced.requests.size());
  out->record["reference_s"] = std::to_string(check_timer.Seconds());

  if (!options.trace) {
    std::vector<double> latencies;
    for (const LibRequest& r : timed.requests) {
      latencies.push_back(r.latency_s);
    }
    out->Set("setup_s", setup_s, "s");
    out->Set("query_p50_ms", Quantile(latencies, 0.5) * 1e3, "ms");
    out->Set("query_p95_ms", Quantile(latencies, 0.95) * 1e3, "ms");
    out->Set("qps", static_cast<double>(latencies.size()) / timed.wall_s,
             "1/s");
    out->Set("recall_at_10", Mean(recalls), "ratio");
    out->record["samples"] = std::to_string(latencies.size());
    return;
  }

  std::vector<SearchStats> stats;
  double traced_s = 0.0;
  double untraced_s = 0.0;  // each traced request's untraced twin
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    stats.push_back(traced.requests[i].stats);
    traced_s += traced.requests[i].latency_s;
    untraced_s += timed.requests[i].latency_s;
  }
  LedgerMetrics(stats, config.count, out);
  SpanMetrics(fold, static_cast<double>(stats.size()), out);
  out->Set("util.worker_busy_frac", 0.0, "ratio");  // no thread pool runs
  out->Set("obs.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  out->Set("obs.dropped_events", static_cast<double>(dropped), "count");
  ZeroServeMetrics(out);
  out->record["samples"] = std::to_string(stats.size());
}

// ---------------------------------------------------------------- serve-mix

enum class Kind { kNew, kRepeat, kEpsilon, kNg };

struct ServeRequest {
  Kind kind = Kind::kNew;
  size_t query = 0;
  double latency_s = 0.0;
  bool ok = false;
  bool rejected = false;
  bool cached = false;
  std::vector<Neighbor> answer;
  SearchStats stats;
};

/// The shared closed-loop schedule. Slot i's kind is a pure function of
/// (seed, i); a repeat (and an approximate request, which reuses a query
/// whose truth is known) only ever names a query whose first exact answer
/// has already come back, so every scheduled repeat is a real cache hit.
class MixSchedule {
 public:
  MixSchedule(uint64_t seed, size_t pool, size_t reload_every)
      : seed_(seed), pool_(pool), reload_every_(reload_every) {}

  struct Slot {
    Kind kind = Kind::kNew;
    size_t query = 0;
    bool reload = false;
  };

  /// Hands out the next slot; false once the phase is over.
  bool Next(const WallTimer& phase, double seconds, size_t min_requests,
            size_t max_requests, Slot* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t issued = next_slot_ - phase_begin_;
    if (issued >= max_requests) return false;
    if (issued >= min_requests && phase.Seconds() >= seconds) return false;
    const uint64_t slot_id = next_slot_++;
    const auto pct = static_cast<int>(Mix(seed_ * 31 + slot_id) % 100);
    slot->kind = pct < kNewPct                ? Kind::kNew
                 : pct < kNewPct + kRepeatPct ? Kind::kRepeat
                 : pct < kNewPct + kRepeatPct + kEpsilonPct ? Kind::kEpsilon
                                                            : Kind::kNg;
    if (slot->kind != Kind::kNew && answered_.empty()) slot->kind = Kind::kNew;
    if (slot->kind == Kind::kNew) {
      if (next_new_ == pool_) return false;  // pool exhausted: phase over
      slot->query = next_new_++;
    } else {
      slot->query = answered_[Mix(seed_ ^ (slot_id << 8)) % answered_.size()];
    }
    slot->reload = slot_id % reload_every_ == reload_every_ - 1;
    return true;
  }

  /// Records that the first exact answer to `query` came back.
  void Answered(size_t query) {
    std::lock_guard<std::mutex> lock(mu_);
    answered_.push_back(query);
  }

  /// Starts a new phase: request limits count from here.
  void BeginPhase() {
    std::lock_guard<std::mutex> lock(mu_);
    phase_begin_ = next_slot_;
  }

  size_t new_issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_new_;
  }

 private:
  const uint64_t seed_;
  const size_t pool_;
  const size_t reload_every_;
  mutable std::mutex mu_;
  uint64_t next_slot_ = 0;
  uint64_t phase_begin_ = 0;
  size_t next_new_ = 0;
  std::vector<size_t> answered_;
};

struct ServePhase {
  std::vector<ServeRequest> requests;
  double wall_s = 0.0;
  std::vector<double> open_s;
  std::vector<double> reload_s;
};

QuerySpec SpecFor(Kind kind) {
  switch (kind) {
    case Kind::kEpsilon:
      return QuerySpec::Epsilon(kK, kEpsilon);
    case Kind::kNg:
      return QuerySpec::NgApprox(kK);
    default:
      return QuerySpec::Knn(kK);
  }
}

/// Closed-loop traffic from kClients connections, in `slices` consecutive
/// slices. A slice ends once `seconds` have passed and `min_requests` were
/// issued, or after `max_requests`; the clients then wait for each other,
/// and `between(i, slice)` runs alone after slice i, before the next one.
std::vector<ServePhase> ServeLoop(
    const WorkloadConfig& config, const Options& options, Ready* ready,
    const Dataset& pool, MixSchedule* schedule, size_t slices,
    double seconds, size_t min_requests, size_t max_requests,
    const std::function<void(size_t, const ServePhase&)>& between) {
  std::vector<std::unique_ptr<hydra::serve::Client>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<hydra::serve::Client>());
    const hydra::util::Status connected =
        clients.back()->Connect("127.0.0.1", ready->server->port());
    HYDRA_CHECK_MSG(connected.ok(), "serve-mix client cannot connect");
  }
  std::vector<ServePhase> phases(slices);
  std::vector<std::vector<ServeRequest>> per_client(kClients);
  std::mutex reload_mu;  // guards the current phase's open_s / reload_s
  size_t current = 0;
  schedule->BeginPhase();
  WallTimer timer;
  // Runs while every client waits: close the slice, then open the next.
  auto slice_end = [&]() noexcept {
    ServePhase& phase = phases[current];
    phase.wall_s = timer.Seconds();
    for (auto& requests : per_client) {
      for (ServeRequest& r : requests) phase.requests.push_back(std::move(r));
      requests.clear();
    }
    between(current, phase);
    ++current;
    schedule->BeginPhase();
    timer.Reset();
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), slice_end);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      hydra::serve::Client& client = *clients[c];
      for (size_t slice = 0; slice < slices; ++slice) {
        MixSchedule::Slot slot;
        while (schedule->Next(timer, seconds, min_requests, max_requests,
                              &slot)) {
          if (slot.reload) {
            // The write beside the reads: reopen the saved index and swap
            // it in under live traffic.
            std::shared_ptr<SearchMethod> fresh =
                hydra::bench::CreateMethod(config.method);
            WallTimer t;
            {
              HYDRA_OBS_SPAN("bench.open");
              const auto opened = fresh->Open(options.work_dir + "/index",
                                              ready->storage->dataset());
              HYDRA_CHECK_MSG(opened.ok(),
                              "cannot reopen the serve-mix index");
            }
            const double open_s = t.Seconds();
            t.Reset();
            {
              HYDRA_OBS_SPAN("bench.reload");
              ready->server->Reload(std::move(fresh));
            }
            std::lock_guard<std::mutex> lock(reload_mu);
            phases[slice].open_s.push_back(open_s);
            phases[slice].reload_s.push_back(t.Seconds());
          }
          ServeRequest r;
          r.kind = slot.kind;
          r.query = slot.query;
          hydra::serve::QueryRequest request;
          request.spec = SpecFor(slot.kind);
          const hydra::core::SeriesView q = pool[slot.query];
          request.query.assign(q.begin(), q.end());
          hydra::serve::AnswerResponse answer;
          hydra::serve::ErrorCode code = hydra::serve::ErrorCode::kInternal;
          WallTimer t;
          hydra::util::Status status;
          {
            HYDRA_OBS_SPAN("bench.client_query");
            status = client.Query(request, &answer, &code);
          }
          r.latency_s = t.Seconds();
          r.ok = status.ok();
          r.rejected = !status.ok() &&
                       code == hydra::serve::ErrorCode::kResourceExhausted;
          if (r.ok) {
            r.answer = std::move(answer.result.neighbors);
            r.stats = answer.result.stats;
            r.cached = answer.cached;
            if (slot.kind == Kind::kNew) schedule->Answered(slot.query);
          }
          per_client[c].push_back(std::move(r));
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return phases;
}

/// Reads a number following `"key":` in a STATS document; 0 when absent.
double JsonNumber(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

/// The gate over serve answers: exact answers against the truth, epsilon
/// answers for consistency and against their (1 + epsilon) guarantee;
/// refusals and errors fail. Approximate recalls go to `recalls`.
int64_t CheckServe(const std::vector<ServeRequest>& requests,
                   const ReferenceStore& refs, const Dataset& data,
                   const Dataset& pool, std::vector<double>* recalls,
                   std::vector<std::string>* notes) {
  int64_t failed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& r = requests[i];
    bool good = r.ok;
    if (good) {
      const auto& truth = refs.truth(r.query);
      switch (r.kind) {
        case Kind::kNew:
        case Kind::kRepeat:
          good = SameExactAnswer(r.answer, truth, data, pool[r.query]);
          break;
        case Kind::kEpsilon:
          recalls->push_back(hydra::core::RecallAtK(r.answer, truth, kK));
          good = r.answer.size() == kK &&
                 ConsistentAnswer(r.answer, data, pool[r.query]) &&
                 hydra::core::ApproximationError(r.answer, truth) <=
                     (1.0 + kEpsilon) * (1.0 + 1e-6);
          break;
        case Kind::kNg:  // no guarantee (one leaf, maybe under k series)
          recalls->push_back(hydra::core::RecallAtK(r.answer, truth, kK));
          break;
      }
    }
    if (!good) {
      ++failed;
      if (failed <= 3) {
        static const char* const kKindNames[] = {"new", "repeat", "epsilon",
                                                 "ng"};
        notes->push_back("serve failure: request " + std::to_string(i) +
                         " (" + kKindNames[static_cast<int>(r.kind)] + ")" +
                         (r.ok        ? " wrong answer"
                          : r.rejected ? " refused"
                                       : " error reply"));
      }
    }
  }
  return failed;
}

void RunServe(const WorkloadConfig& config, const Options& options,
              const Inputs& in, Outcome* out) {
  const size_t min_requests = options.tiny ? 20 : kMinRequests;
  const size_t reload_every = options.tiny    ? 50
                              : options.trace ? kTracedReloadEvery
                                              : kReloadEvery;
  MixSchedule schedule(options.seed, in.queries.size(), reload_every);
  Ready ready;
  TraceFold fold;
  uint64_t dropped = 0;
  double setup_s = 0.0;
  std::vector<ServePhase> phases;

  if (!options.trace) {
    setup_s = Setup(config, options, in, &ready, out);
    phases = ServeLoop(config, options, &ready, in.queries, &schedule, 1,
                       options.seconds, min_requests, SIZE_MAX,
                       [](size_t, const ServePhase&) {});
    out->Set("peak_rss_mb", PeakRssMib(), "MiB");
  } else {
    dropped += TracedSetup(config, options, in, size_t{1} << 10, &ready, out);
    // Untraced and traced slices alternate (odd slices are traced), so a
    // drift in machine speed hits both sides of the overhead ratio alike.
    // Spans stay in the rings until the last slice (requests overlap, so
    // there is no quiet point to drain at): the rings are sized for every
    // traced request from the first slice's node visits, with room for the
    // busiest server worker taking twice its share.
    const size_t slice = options.tiny ? 10 : kServeSlice;
    auto& tracer = hydra::obs::Tracer::Get();
    size_t capacity = 0;
    phases = ServeLoop(
        config, options, &ready, in.queries, &schedule,
        2 * kServeTracedSlices, 0.0, slice, slice,
        [&](size_t i, const ServePhase& done) {
          if (i % 2 == 1) {
            tracer.Disable();
            return;
          }
          if (capacity == 0) {
            double nodes = 0.0;
            for (const ServeRequest& r : done.requests) {
              nodes += static_cast<double>(r.stats.nodes_visited);
            }
            const double per_request =
                nodes / static_cast<double>(done.requests.size()) + 16.0;
            capacity = static_cast<size_t>(std::clamp(
                2.0 * static_cast<double>(kServeTracedSlices * slice) *
                    per_request / kServeThreads,
                4096.0, static_cast<double>(size_t{1} << 19)));
          }
          tracer.Enable(capacity);
        });
    tracer.Disable();
    dropped += Drain(&fold);
  }

  std::string stats_json;
  {
    hydra::serve::Client client;
    HYDRA_CHECK_MSG(client.Connect("127.0.0.1", ready.server->port()).ok(),
                    "serve-mix stats client cannot connect");
    HYDRA_CHECK_MSG(client.Stats(&stats_json).ok(),
                    "serve-mix STATS request failed");
  }
  const hydra::serve::AnswerCache::Counters cache =
      ready.server->cache_counters();
  ready.server->Shutdown();

  // Pool the slices, keeping what the traced ones need apart.
  std::vector<ServeRequest> all;
  std::vector<SearchStats> executed;  // traced, answered by Execute
  std::vector<double> open_s;
  std::vector<double> reload_s;
  double wall_s[2] = {0.0, 0.0};  // untraced, traced
  size_t count[2] = {0, 0};
  for (size_t i = 0; i < phases.size(); ++i) {
    const size_t traced = options.trace && i % 2 == 1 ? 1 : 0;
    ServePhase& p = phases[i];
    wall_s[traced] += p.wall_s;
    count[traced] += p.requests.size();
    open_s.insert(open_s.end(), p.open_s.begin(), p.open_s.end());
    reload_s.insert(reload_s.end(), p.reload_s.begin(), p.reload_s.end());
    for (ServeRequest& r : p.requests) {
      if (traced == 1 && r.ok && !r.cached) executed.push_back(r.stats);
      all.push_back(std::move(r));
    }
  }

  // The gate, outside timing.
  WallTimer check_timer;
  ReferenceStore refs(options.cache_dir, in.ref_key, kK);
  refs.Ensure(ready.storage->dataset(), in.queries, schedule.new_issued());
  if (options.tamper) {
    std::vector<std::vector<Neighbor>*> exact;
    for (ServeRequest& r : all) {
      if (r.ok && r.kind == Kind::kNew) exact.push_back(&r.answer);
    }
    HYDRA_CHECK_MSG(exact.size() >= 2, "too few exact answers to tamper");
    Tamper(exact[0], exact[1]);
  }
  std::vector<double> recalls;
  out->failed = CheckServe(all, refs, ready.storage->dataset(), in.queries,
                           &recalls, &out->notes);
  out->attempted = static_cast<int64_t>(all.size());
  out->record["reference_s"] = std::to_string(check_timer.Seconds());

  // The cache-hit schedule: achieved (server counters) vs scheduled.
  size_t news = 0;
  size_t repeats = 0;
  for (const ServeRequest& r : all) {
    news += r.kind == Kind::kNew ? 1 : 0;
    repeats += r.kind == Kind::kRepeat ? 1 : 0;
  }
  const double target_hit =
      static_cast<double>(repeats) /
      static_cast<double>(std::max<size_t>(1, news + repeats));
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  const double achieved_hit =
      lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups;
  out->record["target_hit_ratio"] = std::to_string(target_hit);
  out->record["achieved_hit_ratio"] = std::to_string(achieved_hit);
  out->record["mix_hit_ratio"] =
      std::to_string(static_cast<double>(kRepeatPct) / (kNewPct + kRepeatPct));
  if (std::fabs(achieved_hit - target_hit) > kHitRatioSlack) {
    out->correct = false;
    out->notes.push_back("cache-hit ratio strays from the schedule: achieved " +
                         std::to_string(achieved_hit) + " vs target " +
                         std::to_string(target_hit));
  }

  std::vector<double> latencies;
  for (const ServeRequest& r : all) latencies.push_back(r.latency_s);
  out->record["samples"] = std::to_string(latencies.size());
  if (!options.trace) {
    out->Set("setup_s", setup_s, "s");
    out->Set("query_p50_ms", Quantile(latencies, 0.5) * 1e3, "ms");
    out->Set("query_p95_ms", Quantile(latencies, 0.95) * 1e3, "ms");
    out->Set("qps", static_cast<double>(latencies.size()) / wall_s[0], "1/s");
    out->Set("recall_at_10", Mean(recalls), "ratio");
    return;
  }

  LedgerMetrics(executed, config.count, out);
  SpanMetrics(fold, static_cast<double>(fold.count("execute")), out);
  const double server_p50_ms = JsonNumber(stats_json, "p50_ms");
  out->Set("serve.server_p50_ms", server_p50_ms, "ms");
  out->Set("serve.transport_p50_ms",
           Quantile(latencies, 0.5) * 1e3 - server_p50_ms, "ms");
  out->Set("serve.request_self_ms_per_q",
           fold.self_ms("serve_request") /
               std::max<double>(1.0, fold.count("serve_request")),
           "ms");
  out->Set("serve.cache_hit_ratio", achieved_hit, "ratio");
  out->Set("serve.rejected", JsonNumber(stats_json, "rejected"), "count");
  out->Set("serve.reload_s", Mean(reload_s), "s");
  out->Set("io.index_open_s", Mean(open_s), "s");
  out->Set("util.worker_busy_frac",
           fold.total_ms("serve_request") /
               (wall_s[1] * 1e3 * static_cast<double>(kServeThreads)),
           "ratio");
  out->Set("obs.trace_overhead_frac",
           (wall_s[1] / static_cast<double>(count[1])) /
                   (wall_s[0] / static_cast<double>(count[0])) -
               1.0,
           "ratio");
  out->Set("obs.dropped_events", static_cast<double>(dropped), "count");
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : Table()) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

WorkloadConfig Scaled(const WorkloadConfig& config) {
  WorkloadConfig tiny = config;
  tiny.count = config.count / 50;
  tiny.length = 64;
  tiny.query_pool = config.query_pool / 10;
  return tiny;
}

void RunWorkload(const WorkloadConfig& config, const Options& options,
                 Outcome* out) {
  std::filesystem::create_directories(options.work_dir);
  WallTimer inputs_timer;
  const Inputs in = MakeInputs(config, options, out);
  out->record["inputs_s"] = std::to_string(inputs_timer.Seconds());
  // peak_rss_mb covers set-up and queries, not the generated inputs.
  out->record["peak_rss_reset"] = ResetPeakRss() ? "true" : "false";
  if (config.serve) {
    RunServe(config, options, in, out);
  } else {
    RunLibrary(config, options, in, out);
  }
}

}  // namespace hydrabench
