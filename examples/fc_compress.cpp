// Command-line compression tool: reads a headerless numeric CSV, builds a
// coreset with any method of the API, and writes the compressed rows plus
// a weight column. A downstream user can feed the output into any
// weighted clustering implementation.
//
// The method name goes straight into the API's method table, so every
// method (and alias) works here without this tool knowing any of them —
// and an unknown name or inconsistent request comes back as a readable
// error, not an abort.
//
//   fc_compress <input.csv> <output.csv> [method] [k] [m] [z] [seed]
//     method: any method name — uniform | lightweight | welterweight |
//             sensitivity | fast_coreset (alias: fast, default) |
//             group_sampling (alias: group) | bico | stream_km
//     k: target cluster count (default 100)
//     m: coreset size (default 40 * k)
//     z: 1 = k-median, 2 = k-means (default 2)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/api/fastcoreset.h"
#include "src/data/csv_loader.h"

int main(int argc, char** argv) {
  using namespace fastcoreset;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <input.csv> <output.csv> [method] [k] [m] [z] "
                 "[seed]\n",
                 argv[0]);
    return 2;
  }
  const std::string input = argv[1];
  const std::string output = argv[2];

  api::CoresetSpec spec;
  spec.method = argc > 3 ? argv[3] : "fast";
  spec.k = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 100;
  spec.m = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 0;  // 0 = 40k.
  spec.z = argc > 6 ? std::atoi(argv[6]) : 2;
  spec.seed = argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 1;

  const auto points = LoadCsv(input);
  if (!points.has_value()) {
    std::fprintf(stderr, "error: could not parse %s\n", input.c_str());
    return 1;
  }
  std::printf("loaded %zu x %zu from %s\n", points->rows(), points->cols(),
              input.c_str());

  const api::FcStatusOr<api::BuildResult> result =
      api::Build(spec, *points);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 2;
  }
  const Coreset& coreset = result->coreset;

  // Output rows: original columns plus a trailing weight column.
  Matrix out(coreset.size(), points->cols() + 1);
  for (size_t r = 0; r < coreset.size(); ++r) {
    for (size_t j = 0; j < points->cols(); ++j) {
      out.At(r, j) = coreset.points.At(r, j);
    }
    out.At(r, points->cols()) = coreset.weights[r];
  }
  if (!SaveCsv(output, out)) {
    std::fprintf(stderr, "error: could not write %s\n", output.c_str());
    return 1;
  }
  std::printf(
      "wrote %zu weighted rows (total weight %.1f, %.1fx compression) to %s "
      "in %.2fs\n",
      coreset.size(), coreset.TotalWeight(),
      static_cast<double>(points->rows()) / coreset.size(), output.c_str(),
      result->diagnostics.total_seconds);
  return 0;
}
