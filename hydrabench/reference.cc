// Brute-force reference answers (cached on disk), the exactness gate, and
// small helpers (content hash, peak RSS).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/distance.h"
#include "core/method.h"
#include "hydrabench.h"
#include "util/thread_pool.h"

namespace hydrabench {

namespace {

constexpr uint64_t kRefMagic = 0x4852454642454e31ULL;  // "HREFBEN1"

}  // namespace

ReferenceStore::ReferenceStore(std::string cache_dir, std::string key,
                               size_t k)
    : path_(std::move(cache_dir) + "/" + key + ".ref"), k_(k) {
  Load();
}

void ReferenceStore::Load() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  uint64_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] != kRefMagic || header[1] != k_) return;
  std::vector<std::vector<hydra::core::Neighbor>> loaded(header[2]);
  for (auto& answer : loaded) {
    answer.resize(k_);
    for (hydra::core::Neighbor& n : answer) {
      in.read(reinterpret_cast<char*>(&n.id), sizeof(n.id));
      in.read(reinterpret_cast<char*>(&n.dist_sq), sizeof(n.dist_sq));
    }
  }
  if (in) truth_ = std::move(loaded);  // a short file is ignored whole
}

void ReferenceStore::Store() const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path_).parent_path(), ec);
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const uint64_t header[3] = {kRefMagic, k_, truth_.size()};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (const auto& answer : truth_) {
      for (const hydra::core::Neighbor& n : answer) {
        out.write(reinterpret_cast<const char*>(&n.id), sizeof(n.id));
        out.write(reinterpret_cast<const char*>(&n.dist_sq),
                  sizeof(n.dist_sq));
      }
    }
    if (!out) return;  // the cache is an optimization; never fail a run
  }
  std::filesystem::rename(tmp, path_, ec);
}

void ReferenceStore::Ensure(const hydra::core::Dataset& data,
                            const hydra::core::Dataset& pool, size_t n) {
  const size_t have = truth_.size();
  if (n <= have) return;
  truth_.resize(n);
  hydra::util::ThreadPool workers(
      hydra::util::ThreadPool::HardwareConcurrency());
  workers.ParallelFor(have, n, [&](size_t q) {
    truth_[q] = hydra::core::BruteForceKnn(data, pool[q], k_);
  });
  Store();
}

bool ConsistentAnswer(const std::vector<hydra::core::Neighbor>& got,
                      const hydra::core::Dataset& data,
                      hydra::core::SeriesView query) {
  std::unordered_set<uint64_t> seen;
  for (const hydra::core::Neighbor& n : got) {
    if (n.id >= data.size() || !seen.insert(n.id).second) return false;
    const double actual = hydra::core::SquaredEuclidean(query, data[n.id]);
    if (std::fabs(n.dist_sq - actual) > 1e-5 * std::max(1.0, actual)) {
      return false;
    }
  }
  return true;
}

bool SameExactAnswer(const std::vector<hydra::core::Neighbor>& got,
                     const std::vector<hydra::core::Neighbor>& truth,
                     const hydra::core::Dataset& data,
                     hydra::core::SeriesView query) {
  if (got.size() != truth.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-5 * std::max(1.0, truth[i].dist_sq);
    if (std::fabs(got[i].dist_sq - truth[i].dist_sq) > tol) return false;
  }
  return ConsistentAnswer(got, data, query);
}

uint64_t ContentHash(const hydra::core::Dataset& data) {
  // FNV-1a over 64-bit words of the value bytes.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < data.size(); ++i) {
    const hydra::core::SeriesView series = data[i];
    const auto* bytes = reinterpret_cast<const unsigned char*>(series.data());
    const size_t size = series.size() * sizeof(hydra::core::Value);
    size_t at = 0;
    for (; at + sizeof(uint64_t) <= size; at += sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, bytes + at, sizeof(word));
      hash = (hash ^ word) * 0x100000001b3ULL;
    }
    for (; at < size; ++at) hash = (hash ^ bytes[at]) * 0x100000001b3ULL;
  }
  return hash;
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs resets the peak resident set size (proc(5)).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace hydrabench
