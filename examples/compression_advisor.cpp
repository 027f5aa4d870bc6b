// The paper's Section 5.5 takeaway as a tool: an optimistic user defaults
// to uniform sampling, a cautious one checks whether the dataset's
// clusters are balanced enough for that to be safe — but that check costs
// as much as a Fast-Coreset, so the cautious user should just build one.
//
// This example runs the "advisor" on three datasets of increasing
// difficulty and shows where each sampling strategy on the spectrum
// (uniform -> lightweight -> welterweight -> fast-coreset) starts to fail.
//
//   build/examples/compression_advisor

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/api/fastcoreset.h"
#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/table_printer.h"
#include "src/data/generators.h"
#include "src/data/real_like.h"
#include "src/eval/distortion.h"

#include "examples/example_util.h"

namespace {

using namespace fastcoreset;

/// Cluster-size imbalance proxy: ratio of largest to smallest cluster in a
/// cheap k-means++ probe. (This probe is already O(nkd) — the point the
/// paper makes: verifying balance costs as much as doing it right.)
double ImbalanceScore(const Matrix& points, size_t k, Rng& rng) {
  const Clustering probe = KMeansPlusPlus(points, {}, k, 2, rng);
  std::vector<size_t> sizes(probe.centers.rows(), 0);
  for (size_t assignment : probe.assignment) ++sizes[assignment];
  size_t lo = points.rows(), hi = 0;
  for (size_t s : sizes) {
    if (s == 0) continue;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  return lo == 0 ? 1e9 : static_cast<double>(hi) / static_cast<double>(lo);
}

void Advise(const std::string& name, const Matrix& points, size_t k,
            Rng& rng) {
  const size_t m = 20 * k;
  const double imbalance = ImbalanceScore(points, k, rng);
  const char* advice = imbalance < 10.0
                           ? "balanced -> uniform sampling is likely safe"
                           : imbalance < 100.0
                                 ? "skewed -> use welterweight or better"
                                 : "extreme -> strong coreset required";
  std::printf("\n== %s (n=%zu, d=%zu): imbalance %.1f — %s\n", name.c_str(),
              points.rows(), points.cols(), imbalance, advice);

  // The spectrum, fastest to most accurate — every name resolves through
  // the same method table the production entry points use.
  const std::vector<std::string> spectrum = {
      "uniform", "lightweight", "welterweight", "sensitivity",
      "fast_coreset"};
  TablePrinter table;
  table.SetHeader({"method", "distortion"});
  for (size_t i = 0; i < spectrum.size(); ++i) {
    api::CoresetSpec spec;
    spec.method = spectrum[i];
    spec.k = k;
    spec.m = m;
    spec.seed = i * 7919 + 1;
    Rng local(spec.seed);
    const Coreset coreset = api::Build(spec, points, {}, local)->coreset;
    DistortionOptions probe;
    probe.k = k;
    const double distortion =
        CoresetDistortion(points, {}, coreset, probe, local);
    std::string marker = distortion > 5.0 ? "  <-- FAILS" : "";
    table.AddRow({spec.method, TablePrinter::Num(distortion) + marker});
  }
  table.Print();
}

}  // namespace

int main() {
  Rng rng(31337);
  const size_t k = 50;
  const size_t n = examples::ScaledN(40000, /*floor_n=*/4000);

  // Easy: balanced Gaussians — everything works, so take the fastest.
  const Matrix easy = GenerateGaussianMixture(n, 20, k, 0.0, rng);
  Advise("balanced mixture", easy, k, rng);

  // Medium: heavy imbalance — uniform starts missing small clusters.
  const Matrix skewed = GenerateGaussianMixture(n, 20, k, 5.0, rng);
  Advise("imbalanced mixture (gamma=5)", skewed, k, rng);

  // Hard: c-outlier — only importance-based methods survive.
  const Matrix outliers = GenerateCOutlier(n, 25, 20, 1e5, rng);
  Advise("c-outlier", outliers, k, rng);

  std::printf("\nBlueprint (paper 5.5): optimistic users may default to\n"
              "uniform sampling; checking whether that is safe costs as\n"
              "much as building a Fast-Coreset — so cautious users should\n"
              "simply build the Fast-Coreset.\n");
  return 0;
}
