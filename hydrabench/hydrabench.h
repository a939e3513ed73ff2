// Shared declarations of the repository benchmark (see README.md): the run
// options, the workload table, the brute-force reference store, the trace
// fold, and the run outcome printed as the last line of a run.
#ifndef HYDRABENCH_HYDRABENCH_H_
#define HYDRABENCH_HYDRABENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/knn.h"
#include "obs/trace.h"

namespace hydrabench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes so every workload finishes in seconds (the self-test).
  bool tiny = false;
  /// Alters one exact answer before the correctness gate (the self-test's
  /// proof that the gate trips).
  bool tamper = false;
  /// Directory of cached brute-force references.
  std::string cache_dir = ".bench_cache";
  /// Per-run directory for the data file and the saved index.
  std::string work_dir;
};

/// One named workload; sizes are the full-scale ones (Scaled() shrinks
/// them for --tiny with every ratio kept).
struct WorkloadConfig {
  std::string name;
  std::string method;
  size_t count = 0;
  size_t length = 0;
  /// 0 = unsharded; otherwise the ShardedIndex shard count, searched one
  /// after another on the caller's thread.
  size_t shards = 0;
  /// mmap backend with a buffer pool of this fraction of the data file
  /// (0 = RAM backend).
  double pool_fraction = 0.0;
  /// Served through an in-process serve::Server (serve-mix).
  bool serve = false;
  /// Distinct queries the run draws from (library workloads cycle them;
  /// serve-mix issues each as a new exact query at most once).
  size_t query_pool = 0;
};

/// The four workloads, by name; nullptr when unknown.
const WorkloadConfig* FindWorkload(const std::string& name);

/// The same workload at self-test scale.
WorkloadConfig Scaled(const WorkloadConfig& config);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the gate outcome, the request counts, the metrics
/// (end-to-end without --trace, per-layer with it), and free-form record
/// fields (fingerprint, sample counts, achieved hit ratio).
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> record;
  /// Human-readable lines printed before the result (the unattributed
  /// line of a traced run, gate failures).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Runs one workload end to end and fills `out`. A run that cannot be
/// carried out at all (unwritable work directory, no loopback socket)
/// aborts with a message.
void RunWorkload(const WorkloadConfig& config, const Options& options,
                 Outcome* out);

// ---------------------------------------------------------------- reference

/// Exact k-NN truth for a prefix of a query pool, computed with
/// core::BruteForceKnn outside timing and cached on disk under a key made
/// of the dataset shape, the seeds, the pool size, and content hashes of
/// the data and the queries (so changed inputs never meet stale truth).
class ReferenceStore {
 public:
  ReferenceStore(std::string cache_dir, std::string key, size_t k);

  /// Makes truth available for queries [0, n) of `pool`, loading what the
  /// cache holds and brute-forcing (on all cores) the rest.
  void Ensure(const hydra::core::Dataset& data,
              const hydra::core::Dataset& pool, size_t n);

  const std::vector<hydra::core::Neighbor>& truth(size_t query) const {
    return truth_[query];
  }

 private:
  void Load();
  void Store() const;

  std::string path_;
  size_t k_;
  std::vector<std::vector<hydra::core::Neighbor>> truth_;
};

/// Whether every neighbor of `got` names a distinct series of `data` and
/// carries that series' true squared distance to `query` (1e-5 relative).
bool ConsistentAnswer(const std::vector<hydra::core::Neighbor>& got,
                      const hydra::core::Dataset& data,
                      hydra::core::SeriesView query);

/// The exactness gate of tests/integration/exactness_test.cc, plus the ids:
/// a consistent answer (above) of the truth's length whose dist_sq at each
/// rank is within 1e-5 relative of the truth's. Ties may differ in id.
bool SameExactAnswer(const std::vector<hydra::core::Neighbor>& got,
                     const std::vector<hydra::core::Neighbor>& truth,
                     const hydra::core::Dataset& data,
                     hydra::core::SeriesView query);

/// A 64-bit hash of a dataset's values (the reference-cache key).
uint64_t ContentHash(const hydra::core::Dataset& data);

// -------------------------------------------------------------------- trace

/// Span sums folded from tracer batches. Self time is a span's duration
/// minus the part its same-thread child spans cover. Every listed workload
/// runs a request's spans on one thread, so a request's self times add up
/// to its `execute` span.
class TraceFold {
 public:
  /// Folds one Collect() batch.
  void Add(const std::vector<hydra::obs::CollectedEvent>& events);

  double total_ms(const std::string& name) const;
  double self_ms(const std::string& name) const;
  int64_t count(const std::string& name) const;

  /// Mean over batches holding shard_search spans of
  /// max(shard_search) / mean(shard_search).
  double shard_imbalance() const;

 private:
  struct Sums {
    double total_ms = 0.0;
    double self_ms = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Sums> sums_;
  double imbalance_sum_ = 0.0;
  int64_t imbalance_batches_ = 0;
};

// ------------------------------------------------------------------ helpers

/// Resets this process's VmHWM to its current RSS; false when the kernel
/// refuses.
bool ResetPeakRss();

/// VmHWM of this process in MiB.
double PeakRssMib();

}  // namespace hydrabench

#endif  // HYDRABENCH_HYDRABENCH_H_
