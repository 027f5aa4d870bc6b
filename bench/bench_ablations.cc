// Ablations on the Fast-Coreset design choices called out in DESIGN.md:
//   - rejection sampling on/off in Fast-kmeans++,
//   - JL projection on/off,
//   - spread reduction (Crude-Approx + Reduce-Spread) on/off on a
//     huge-spread instance,
//   - center-correction weights on/off,
//   - quadtree depth cap sweep.
// Each row reports distortion and construction time so the cost of every
// knob is visible.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/api/fastcoreset.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/eval/harness.h"

namespace {

using namespace fastcoreset;

void Row(TablePrinter* table, const std::string& label, const Matrix& points,
         const api::CoresetSpec& spec, size_t k, int runs, uint64_t seed) {
  double seconds = 0.0;
  const TrialStats stats = RunTrials(runs, seed, [&](Rng& rng) {
    Timer timer;
    const Coreset coreset = api::Build(spec, points, {}, rng)->coreset;
    seconds += timer.Seconds();
    DistortionOptions probe;
    probe.k = k;
    probe.z = spec.z;
    return CoresetDistortion(points, {}, coreset, probe, rng);
  });
  table->AddRow({label,
                 bench::DistortionCell(stats.value.Mean(),
                                       stats.value.Variance()),
                 TablePrinter::Num(seconds / runs)});
  std::printf("done: %s\n", label.c_str());
  std::fflush(stdout);
}

/// A fast_coreset spec with the given sub-options.
api::CoresetSpec FastSpec(size_t k, size_t m, const api::FastOptions& options) {
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = k;
  spec.m = m;
  spec.options = options;
  return spec;
}

}  // namespace

int main() {
  bench::Banner("Ablations — Fast-Coreset design choices",
                "each knob trades speed against robustness as analysed in "
                "Sections 3-4");

  const size_t k = bench::K();
  const int runs = bench::Runs();
  Rng data_rng(77);
  const size_t n = static_cast<size_t>(50000 * bench::Scale());
  const Matrix gaussian =
      GenerateGaussianMixture(n, 50, 50, /*gamma=*/3.0, data_rng);

  TablePrinter table;
  table.SetHeader({"variant", "distortion", "seconds"});

  const api::FastOptions base;
  Row(&table, "baseline (JL + rejection)", gaussian, FastSpec(k, 40 * k, base),
      k, runs, 31000);

  api::FastOptions no_rejection = base;
  no_rejection.seeding.rejection_sampling = false;
  Row(&table, "no rejection sampling", gaussian,
      FastSpec(k, 40 * k, no_rejection), k, runs, 31001);

  api::FastOptions no_jl = base;
  no_jl.use_jl = false;
  Row(&table, "no JL projection", gaussian, FastSpec(k, 40 * k, no_jl), k,
      runs, 31002);

  api::FastOptions corrected = base;
  corrected.center_correction = true;
  Row(&table, "center-correction weights", gaussian,
      FastSpec(k, 40 * k, corrected), k, runs, 31003);

  api::FastOptions shallow = base;
  shallow.seeding.max_depth = 8;
  Row(&table, "quadtree depth cap 8", gaussian, FastSpec(k, 40 * k, shallow),
      k, runs, 31004);

  api::FastOptions deep = base;
  deep.seeding.max_depth = 40;
  Row(&table, "quadtree depth cap 40", gaussian, FastSpec(k, 40 * k, deep), k,
      runs, 31005);

  std::printf("\nGaussian mixture (gamma=3) ablations\n");
  table.Print();

  // Spread reduction only matters on huge-spread data.
  Rng spread_rng(78);
  const Matrix spread_data = GenerateSpreadDataset(n, 45, spread_rng);
  TablePrinter spread_table;
  spread_table.SetHeader({"variant", "distortion", "seconds"});
  api::FastOptions plain;
  plain.use_jl = false;  // 2-D data.
  Row(&spread_table, "no spread reduction", spread_data,
      FastSpec(k, 40 * k, plain), k, runs, 31006);
  api::FastOptions reduced = plain;
  reduced.use_spread_reduction = true;
  Row(&spread_table, "with spread reduction (Alg 2+3)", spread_data,
      FastSpec(k, 40 * k, reduced), k, runs, 31007);

  std::printf("\nSpread dataset (r=45) ablations\n");
  spread_table.Print();

  // Seeder ablation: tree-greedy (Section 8.4) vs Fast-kmeans++.
  TablePrinter seeder_table;
  seeder_table.SetHeader({"variant", "distortion", "seconds"});
  Row(&seeder_table, "seeder: Fast-kmeans++", gaussian,
      FastSpec(k, 40 * k, base), k, runs, 31008);
  api::FastOptions greedy_seeded = base;
  greedy_seeded.seeder = api::FastSeeder::kTreeGreedy;
  Row(&seeder_table, "seeder: HST tree-greedy", gaussian,
      FastSpec(k, 40 * k, greedy_seeded), k, runs, 31009);
  std::printf("\nSeeder ablation (Section 8.4 extension)\n");
  seeder_table.Print();

  // Group sampling (STOC'21 optimal-size construction) vs sensitivity at
  // shrinking coreset sizes: the size advantage should show at small m.
  TablePrinter group_table;
  group_table.SetHeader({"m", "group sampling", "sensitivity sampling"});
  for (size_t m : {size_t{500}, size_t{1000}, size_t{2000}, size_t{4000}}) {
    auto cell = [&](bool group) {
      api::CoresetSpec spec;
      spec.method = group ? "group_sampling" : "sensitivity";
      spec.k = k;
      spec.m = m;
      const TrialStats stats = RunTrials(
          runs, 32000 + m + group, [&](Rng& rng) {
            const Coreset coreset =
                api::Build(spec, gaussian, {}, rng)->coreset;
            DistortionOptions probe;
            probe.k = k;
            return CoresetDistortion(gaussian, {}, coreset, probe, rng);
          });
      return bench::DistortionCell(stats.value.Mean(),
                                   stats.value.Variance());
    };
    group_table.AddRow({std::to_string(m), cell(true), cell(false)});
    std::fflush(stdout);
  }
  std::printf("\nGroup sampling vs sensitivity sampling across coreset "
              "sizes\n");
  group_table.Print();

  // Streaming-uniform ablation (Section 5.4): merge-&-reduce uniform vs
  // exact uniform sampling (static `uniform`, without replacement) on the
  // c-outlier stream. The paper observes merge-&-reduce's induced
  // non-uniformity can *help* here.
  Rng outlier_rng(79);
  const Matrix outliers = GenerateCOutlier(n, 5, 50, 1e4, outlier_rng);
  TablePrinter stream_table;
  stream_table.SetHeader({"uniform variant", "distortion"});
  const size_t m_stream = 40 * k;
  api::CoresetSpec uniform_spec;
  uniform_spec.method = "uniform";
  uniform_spec.k = k;
  const CoresetBuilder uniform_builder =
      api::MakeBuilder(uniform_spec).value();
  uniform_spec.m = m_stream;
  for (const bool exact : {false, true}) {
    const TrialStats stats = RunTrials(runs, 33000 + exact, [&](Rng& rng) {
      const Coreset coreset =
          exact ? api::Build(uniform_spec, outliers, {}, rng)->coreset
                : StreamingCompress(outliers, {}, uniform_builder,
                                    outliers.rows() / 8, m_stream, rng);
      DistortionOptions probe;
      probe.k = k;
      return CoresetDistortion(outliers, {}, coreset, probe, rng);
    });
    stream_table.AddRow({exact ? "static uniform (exact, without replacement)"
                               : "merge-&-reduce composition",
                         bench::DistortionCell(stats.value.Mean(),
                                               stats.value.Variance())});
  }
  std::printf("\nStreaming uniform sampling on c-outlier: exact uniform vs "
              "merge-&-reduce\n");
  stream_table.Print();
  std::printf("\nExpected shape: baseline distortion ~1.1; removing "
              "rejection sampling or capping depth at 8 hurts accuracy; "
              "spread reduction keeps accuracy while bounding the tree "
              "depth.\n");
  return 0;
}
