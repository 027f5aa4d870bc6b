// DatasetStore: named datasets for the coreset-build service. A long-lived
// service cannot take the dataset by value on every request — clients
// register data once (an in-memory matrix, a CSV file, or a synthetic
// generator spec) and address it by name afterwards. Each entry carries a
// content fingerprint (src/service/fingerprint.h), which is what the
// coreset cache keys on: names are mutable bindings, content is not.

#ifndef FASTCORESET_SERVICE_DATASET_STORE_H_
#define FASTCORESET_SERVICE_DATASET_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/status.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {
namespace service {

/// Generator-backed dataset description, marshalled from a protocol
/// request. `generator` selects among the paper's instance families
/// (src/data/generators.h); fields irrelevant to the selected generator
/// are ignored. Fields() names each member once, by its wire name, as
/// the method options structs do.
struct SyntheticSpec {
  /// "gaussian_mixture" | "benchmark" | "spread" | "c_outlier".
  std::string generator = "gaussian_mixture";
  size_t n = 1000;       ///< Point count (all generators).
  size_t d = 2;          ///< Dimensions (gaussian_mixture, c_outlier).
  size_t kappa = 4;      ///< Cluster count (gaussian_mixture).
  double gamma = 0.0;    ///< Cluster-size imbalance (gaussian_mixture).
  size_t k = 4;          ///< Solution size (benchmark).
  size_t r = 4;          ///< Spread parameter (spread).
  size_t c = 10;         ///< Outlier count (c_outlier).
  double separation = 100.0;  ///< Outlier distance (c_outlier).
  uint64_t seed = 1;     ///< Generator rng seed.

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) {
    f("generator", self.generator);
    f("n", self.n);
    f("d", self.d);
    f("kappa", self.kappa);
    f("gamma", self.gamma);
    f("k", self.k);
    f("r", self.r);
    f("c", self.c);
    f("separation", self.separation);
    f("seed", self.seed);
  }
};

/// One registered dataset. Entries are immutable once registered (the
/// fingerprint would otherwise lie) and handed out as shared snapshots,
/// so a lookup stays valid even if the name is Remove()d mid-build.
struct DatasetEntry {
  std::string name;
  std::string source;  ///< "inline" | "csv:<path>" | "synthetic:<generator>".
  Matrix points;
  uint64_t fingerprint = 0;  ///< Content hash (FingerprintMatrix).
};

/// Thread-safe name -> dataset registry. Get() returns a shared
/// snapshot: Remove() unbinds the name, while in-flight holders keep the
/// entry (and its Matrix) alive.
class DatasetStore {
 public:
  /// Registers an in-memory matrix. Rejects empty matrices and duplicate
  /// names (re-binding a name is an explicit Remove + Register, so a
  /// client can never silently swap data under a cached fingerprint).
  api::FcStatus RegisterMatrix(const std::string& name, Matrix points,
                               const std::string& source = "inline");

  /// Loads a headerless numeric CSV (src/data/csv_loader) and registers it.
  api::FcStatus RegisterCsv(const std::string& name, const std::string& path);

  /// Generates a synthetic dataset (src/data/generators) and registers it.
  /// Deterministic: the same spec always registers identical content.
  api::FcStatus RegisterSynthetic(const std::string& name,
                                  const SyntheticSpec& spec);

  /// Looks up a dataset; kNotFound names the known datasets.
  api::FcStatusOr<std::shared_ptr<const DatasetEntry>> Get(
      const std::string& name) const;

  /// Removes a dataset binding. Returns false when the name is unknown.
  /// Cached coresets built from it are keyed by fingerprint and stay
  /// valid (the content they describe did not change).
  bool Remove(const std::string& name);

  /// Sorted registered names.
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  /// Rank kDatasetStore (see lock_rank in src/common/mutex.h).
  mutable Mutex mutex_{lock_rank::kDatasetStore};
  std::map<std::string, std::shared_ptr<const DatasetEntry>> entries_
      FC_GUARDED_BY(mutex_);
};

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_DATASET_STORE_H_
