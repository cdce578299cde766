// Micro-benchmarks of the distance metric substrate: exact vs banded
// Levenshtein, the one-to-many row kernel vs per-pair bounded calls,
// q-gram, Jaccard and cosine throughput on realistic attribute values.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "metric/levenshtein.h"
#include "metric/metric.h"

namespace {

std::vector<std::string> SampleValues() {
  return {
      "West Wood Hotel",
      "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.",
      "Proceedings of the International Conference on Data Engineering",
      "Proc. of the Intl. Conf. on Data Engineering",
      "Department of Computer Science and Engineering, HKUST",
      "No.3, West Lake Road.",
      "#3, West Lake Rd.",
      "efficient discovery of functional dependencies from relational data",
  };
}

void BM_LevenshteinExact(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(lev.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_LevenshteinExact);

void BM_LevenshteinBanded(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto values = SampleValues();
  const double cap = static_cast<double>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(lev.BoundedDistance(a, b, cap));
    ++i;
  }
}
BENCHMARK(BM_LevenshteinBanded)->Arg(2)->Arg(10)->Arg(30);

// The three Levenshtein kernels head to head on random strings of the
// arg length (equal lengths — worst case for the band): reference DP,
// Myers bit-parallel (lengths <= 64 only), banded early-exit DP.
std::pair<std::string, std::string> RandomPair(std::size_t length) {
  dd::Rng rng(length * 2654435761u + 17);
  auto make = [&] {
    std::string s(length, 'a');
    for (auto& c : s) c = static_cast<char>('a' + rng.NextBounded(26));
    return s;
  };
  return {make(), make()};
}

void BM_LevKernelReferenceDp(benchmark::State& state) {
  const auto [a, b] = RandomPair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::lev::ReferenceDp(a, b));
  }
}
BENCHMARK(BM_LevKernelReferenceDp)->Arg(16)->Arg(64)->Arg(200);

void BM_LevKernelMyers64(benchmark::State& state) {
  const auto [a, b] = RandomPair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::lev::Myers64(a, b));
  }
}
BENCHMARK(BM_LevKernelMyers64)->Arg(16)->Arg(64);

void BM_LevKernelBanded(benchmark::State& state) {
  const auto [a, b] = RandomPair(static_cast<std::size_t>(state.range(0)));
  const std::size_t cap = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dd::lev::Banded(a, b, cap));
  }
}
BENCHMARK(BM_LevKernelBanded)
    ->Args({200, 2})
    ->Args({200, 10})
    ->Args({200, 50});

// The matching build's value-pair table at cap 10 over one value set
// (the sample values plus seeded typo variants): the Levenshtein
// one-to-many row kernel against a per-pair BoundedDistance loop. One
// iteration fills the whole triangle; items are value pairs.
std::vector<std::string> TypoValues(int rounds = 24) {
  dd::Rng rng(23);
  std::vector<std::string> values;
  for (int round = 0; round < rounds; ++round) {
    for (std::string v : SampleValues()) {
      for (int e = 0; e < round % 6; ++e) {
        v[rng.NextBounded(v.size())] =
            static_cast<char>('a' + rng.NextBounded(26));
      }
      values.push_back(std::move(v));
    }
  }
  return values;
}

void BM_LevTableOneToMany(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto strings = TypoValues();
  std::vector<const std::string*> values;
  for (const auto& s : strings) values.push_back(&s);
  const std::size_t n = values.size();
  std::vector<std::uint32_t> ids(n);
  for (std::size_t j = 0; j < n; ++j) ids[j] = static_cast<std::uint32_t>(j);
  std::vector<double> out(n);
  for (auto _ : state) {
    const auto rows = lev.OneToMany(values, 10.0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      rows->Row(static_cast<std::uint32_t>(i), &ids[i + 1], n - i - 1,
                out.data());
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (n - 1) / 2));
}
BENCHMARK(BM_LevTableOneToMany);

void BM_LevTablePairwise(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const auto values = TypoValues();
  const std::size_t n = values.size();
  std::vector<double> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        out[j - i - 1] = lev.BoundedDistance(values[i], values[j], 10.0);
      }
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (n - 1) / 2));
}
BENCHMARK(BM_LevTablePairwise);

// The sampled build's sparse rows at cap 10: 64 rows of a 2 160-value
// set, each against a sorted random list of 350 other ids (the size of
// a near-stratum row). The one-to-many kernel over the id list against
// a per-pair BoundedDistance loop on the same pairs; items are pairs.
struct SparseRows {
  std::vector<std::string> strings = TypoValues(240);
  std::vector<std::uint32_t> rows;               // row value ids
  std::vector<std::vector<std::uint32_t>> ids;   // sorted, per row

  SparseRows() {
    dd::Rng rng(29);
    for (int r = 0; r < 64; ++r) {
      rows.push_back(static_cast<std::uint32_t>(rng.NextBounded(strings.size())));
      std::vector<std::uint32_t> row;
      while (row.size() < 350) {
        row.push_back(static_cast<std::uint32_t>(rng.NextBounded(strings.size())));
      }
      std::sort(row.begin(), row.end());
      ids.push_back(std::move(row));
    }
  }

  std::int64_t pairs() const {
    return static_cast<std::int64_t>(rows.size() * ids[0].size());
  }
};

void BM_LevRowsSparse(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const SparseRows sparse;
  std::vector<const std::string*> values;
  for (const auto& s : sparse.strings) values.push_back(&s);
  const auto rows = lev.OneToMany(values, 10.0);
  std::vector<double> out(350);
  for (auto _ : state) {
    for (std::size_t r = 0; r < sparse.rows.size(); ++r) {
      rows->Row(sparse.rows[r], sparse.ids[r].data(), sparse.ids[r].size(),
                out.data());
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * sparse.pairs());
}
BENCHMARK(BM_LevRowsSparse);

void BM_LevRowsSparsePairwise(benchmark::State& state) {
  dd::LevenshteinMetric lev;
  const SparseRows sparse;
  std::vector<double> out(350);
  for (auto _ : state) {
    for (std::size_t r = 0; r < sparse.rows.size(); ++r) {
      const std::string& a = sparse.strings[sparse.rows[r]];
      for (std::size_t k = 0; k < sparse.ids[r].size(); ++k) {
        out[k] = lev.BoundedDistance(a, sparse.strings[sparse.ids[r][k]], 10.0);
      }
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * sparse.pairs());
}
BENCHMARK(BM_LevRowsSparsePairwise);

void BM_QGram(benchmark::State& state) {
  dd::QGramMetric qgram(static_cast<std::size_t>(state.range(0)));
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(qgram.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_QGram)->Arg(2)->Arg(3);

void BM_Jaccard(benchmark::State& state) {
  dd::JaccardMetric jac;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(jac.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_Jaccard);

void BM_Cosine(benchmark::State& state) {
  dd::CosineMetric cos;
  const auto values = SampleValues();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = values[i % values.size()];
    const auto& b = values[(i + 3) % values.size()];
    benchmark::DoNotOptimize(cos.Distance(a, b));
    ++i;
  }
}
BENCHMARK(BM_Cosine);

}  // namespace

BENCHMARK_MAIN();
