#include "approx/lsh_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "matching/value_cache.h"
#include "metric/metric.h"

namespace dd::approx {

namespace {

// splitmix64 finalizer: the seeded mixing primitive behind every hash
// here. Fixed constants — blocking output is part of the deterministic
// build contract.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the bytes, mixed with `seed`.
std::uint64_t HashBytes(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Mix(h ^ seed);
}

void TokenFeatures(const std::string& value, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  std::size_t i = 0;
  const std::size_t n = value.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    std::size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(value[i]))) ++i;
    if (i > start) {
      out->push_back(
          HashBytes(std::string_view(value).substr(start, i - start), seed));
    }
  }
}

void QGramFeatures(const std::string& value, std::size_t q, std::uint64_t seed,
                   std::vector<std::uint64_t>* out) {
  if (value.size() < q) {
    out->push_back(HashBytes(value, seed));
    return;
  }
  for (std::size_t i = 0; i + q <= value.size(); ++i) {
    out->push_back(HashBytes(std::string_view(value).substr(i, q), seed));
  }
}

// Minhash signature: sig[h] = min over features of Mix(f ^ slot_seeds[h]).
// An empty feature set gets the all-max signature (collides only with
// other empties).
void MinhashSignature(const std::vector<std::uint64_t>& features,
                      const std::vector<std::uint64_t>& slot_seeds,
                      std::vector<std::uint64_t>* sig) {
  sig->assign(slot_seeds.size(), std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t f : features) {
    for (std::size_t h = 0; h < slot_seeds.size(); ++h) {
      const std::uint64_t v = Mix(f ^ slot_seeds[h]);
      if (v < (*sig)[h]) (*sig)[h] = v;
    }
  }
}

// Lists of 32-bit ids: list f is ids[begin[f], begin[f + 1]).
struct IdLists {
  std::vector<std::size_t> begin{0};
  std::vector<std::uint32_t> ids;
};

constexpr std::uint64_t kSortAll = std::numeric_limits<std::uint64_t>::max();

// Groups the pairs that `emit(sink)` passes to sink(first, second), with
// first < num_first and second < num_second, into one duplicate-free
// list of second ids per first id. `emit` must pass the same pairs on
// every call: the first call counts the pairs of each first id, the
// second scatters their second ids into place. A stamp per second id
// then drops repeats within each list. Lists are sorted while fewer
// than `sorted_prefix` ids precede them; later lists stay unsorted.
template <typename Emit>
IdLists GroupPairs(std::size_t num_first, std::size_t num_second,
                   std::uint64_t sorted_prefix, const Emit& emit) {
  IdLists lists;
  std::vector<std::size_t>& begin = lists.begin;
  begin.assign(num_first + 1, 0);
  emit([&](std::uint32_t first, std::uint32_t) { ++begin[first + 1]; });
  for (std::size_t f = 0; f < num_first; ++f) begin[f + 1] += begin[f];
  lists.ids.resize(begin[num_first]);
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    emit([&](std::uint32_t first, std::uint32_t second) {
      lists.ids[cursor[first]++] = second;
    });
  }
  std::vector<std::size_t> stamp(num_second, 0);
  std::size_t kept = 0;
  for (std::size_t f = 0; f < num_first; ++f) {
    const std::size_t from = begin[f];
    const std::size_t to = begin[f + 1];
    begin[f] = kept;
    for (std::size_t i = from; i < to; ++i) {
      const std::uint32_t id = lists.ids[i];
      if (stamp[id] == f + 1) continue;
      stamp[id] = f + 1;
      lists.ids[kept++] = id;
    }
    if (begin[f] < sorted_prefix) {
      std::sort(lists.ids.begin() + begin[f], lists.ids.begin() + kept);
    }
  }
  begin[num_first] = kept;
  lists.ids.resize(kept);
  return lists;
}

// Sorted-neighbor join for kNumeric: the values that parse as finite
// numbers (with the metric's own parser), sorted by value. Distances
// respect the value order, so every near pair sits within a few sorted
// positions.
std::vector<std::pair<double, std::uint32_t>> SortedNumbers(
    const AttributeValueIndex& index) {
  std::vector<std::pair<double, std::uint32_t>> parsed;
  parsed.reserve(index.distinct());
  for (std::size_t v = 0; v < index.distinct(); ++v) {
    double d = 0.0;
    if (!ParseDouble(*index.values[v], &d) || !std::isfinite(d)) continue;
    parsed.emplace_back(d, static_cast<std::uint32_t>(v));
  }
  std::sort(parsed.begin(), parsed.end());
  return parsed;
}

// Minhash banding for the set families. kEdit folds a length bucket
// into each band key under two tags (see lsh_index.h); bucket width is
// the raw distance cap — pairs further apart in length than the cap
// saturate at dmax anyway. Returns the value ids of every bucket
// holding 2 to max_bucket entries; larger buckets are counted in
// *skipped.
IdLists MinhashBuckets(const ResolvedMetrics& resolved, std::size_t a,
                       BlockingFamily family, const AttributeValueIndex& index,
                       const LshOptions& options, std::uint64_t* skipped) {
  const std::uint64_t attr_seed = Mix(options.hash_seed ^ (0xa11ce5ull + a));
  std::vector<std::uint64_t> slot_seeds(options.bands * options.band_rows);
  for (std::size_t h = 0; h < slot_seeds.size(); ++h) {
    slot_seeds[h] = Mix(attr_seed + h);
  }
  std::size_t length_bucket_width = 1;
  if (family == BlockingFamily::kEdit) {
    // A tiny positive scale makes the cap infinite; any width past the
    // longest value puts every value in bucket 0, so clamp before the
    // integer conversion.
    constexpr double kWidestBucket = 1e15;
    const double cap = static_cast<double>(resolved.dmax) / resolved.scales[a];
    length_bucket_width = cap < kWidestBucket
                              ? static_cast<std::size_t>(cap) + 1
                              : static_cast<std::size_t>(kWidestBucket);
  }
  std::size_t q = 2;
  if (family == BlockingFamily::kQGram) {
    if (const auto* qg =
            dynamic_cast<const QGramMetric*>(resolved.metrics[a].get())) {
      q = qg->q();
    }
  }

  struct Entry {
    std::uint64_t key;
    std::uint32_t value;
  };
  std::vector<Entry> entries;
  entries.reserve(index.distinct() * options.bands *
                  (family == BlockingFamily::kEdit ? 2 : 1));
  std::vector<std::uint64_t> features;
  std::vector<std::uint64_t> sig;
  for (std::size_t v = 0; v < index.distinct(); ++v) {
    const auto value = static_cast<std::uint32_t>(v);
    features.clear();
    if (family == BlockingFamily::kTokenSet) {
      TokenFeatures(*index.values[v], attr_seed, &features);
    } else {
      QGramFeatures(*index.values[v], q, attr_seed, &features);
    }
    MinhashSignature(features, slot_seeds, &sig);
    for (std::size_t band = 0; band < options.bands; ++band) {
      std::uint64_t key = Mix(attr_seed ^ (band + 1));
      for (std::size_t r = 0; r < options.band_rows; ++r) {
        key = Mix(key ^ sig[band * options.band_rows + r]);
      }
      if (family == BlockingFamily::kEdit) {
        const std::uint64_t lb = index.values[v]->size() / length_bucket_width;
        entries.push_back({Mix(key ^ (lb * 2 + 2)), value});
        entries.push_back({Mix(key ^ ((lb + 1) * 2 + 3)), value});
      } else {
        entries.push_back({key, value});
      }
    }
  }

  // Bring equal keys together without sorting the whole array: scatter
  // on the keys' top bits (keys are Mix outputs, so those bits are
  // uniform), then sort each partition, about one entry on average.
  int bits = 1;
  while ((std::size_t{1} << bits) < entries.size()) ++bits;
  const int shift = 64 - bits;
  std::vector<std::size_t> part((std::size_t{1} << bits) + 1, 0);
  for (const Entry& e : entries) ++part[(e.key >> shift) + 1];
  for (std::size_t p = 1; p < part.size(); ++p) part[p] += part[p - 1];
  std::vector<Entry> grouped(entries.size());
  {
    std::vector<std::size_t> cursor(part.begin(), part.end() - 1);
    for (const Entry& e : entries) grouped[cursor[e.key >> shift]++] = e;
  }
  entries = {};

  IdLists buckets;
  for (std::size_t p = 0; p + 1 < part.size(); ++p) {
    const auto first = grouped.begin() + part[p];
    const auto last = grouped.begin() + part[p + 1];
    std::sort(first, last,
              [](const Entry& x, const Entry& y) { return x.key < y.key; });
    for (auto run = first; run != last;) {
      auto end = run;
      while (end != last && end->key == run->key) ++end;
      const auto size = static_cast<std::size_t>(end - run);
      if (size > options.max_bucket && size >= 2) {
        ++*skipped;
      } else if (size >= 2) {
        for (auto e = run; e != end; ++e) buckets.ids.push_back(e->value);
        buckets.begin.push_back(buckets.ids.size());
      }
      run = end;
    }
  }
  return buckets;
}

// One attribute's candidates: its rows grouped by value id, and its
// candidate value pairs grouped by lower value id (a self pair for
// every value on two or more rows).
struct AttributePairs {
  IdLists rows_by_value;
  IdLists value_pairs;
};

AttributePairs AttributeCandidates(const Relation& relation,
                                   const ResolvedMetrics& resolved,
                                   std::size_t a, BlockingFamily family,
                                   const LshOptions& options,
                                   std::uint64_t* skipped) {
  const AttributeValueIndex index =
      InternColumn(relation, resolved.attr_idx[a]);
  const std::size_t distinct = index.distinct();
  AttributePairs attr;
  attr.rows_by_value = GroupPairs(
      distinct, relation.num_rows(), kSortAll, [&](const auto& sink) {
        for (std::size_t row = 0; row < index.row_ids.size(); ++row) {
          sink(index.row_ids[row], static_cast<std::uint32_t>(row));
        }
      });

  std::vector<std::pair<double, std::uint32_t>> numbers;
  IdLists buckets;
  if (family == BlockingFamily::kNumeric) {
    numbers = SortedNumbers(index);
  } else {
    buckets = MinhashBuckets(resolved, a, family, index, options, skipped);
  }
  const std::vector<std::size_t>& rows_begin = attr.rows_by_value.begin;
  attr.value_pairs =
      GroupPairs(distinct, distinct, kSortAll, [&](const auto& sink) {
        const auto pair = [&](std::uint32_t x, std::uint32_t y) {
          sink(std::min(x, y), std::max(x, y));
        };
        for (std::size_t i = 0; i < numbers.size(); ++i) {
          const std::size_t hi =
              std::min(numbers.size(), i + 1 + options.numeric_window);
          for (std::size_t w = i + 1; w < hi; ++w) {
            pair(numbers[i].second, numbers[w].second);
          }
        }
        for (std::size_t b = 0; b + 1 < buckets.begin.size(); ++b) {
          for (std::size_t i = buckets.begin[b]; i < buckets.begin[b + 1];
               ++i) {
            for (std::size_t j = i + 1; j < buckets.begin[b + 1]; ++j) {
              pair(buckets.ids[i], buckets.ids[j]);
            }
          }
        }
        // Repeated values are distance 0 on this attribute — the
        // nearest pairs there are.
        for (std::uint32_t v = 0; v < distinct; ++v) {
          if (rows_begin[v + 1] - rows_begin[v] >= 2) sink(v, v);
        }
      });
  return attr;
}

// Passes the row pairs (lo, hi) of every value pair to `sink` in
// (attribute, value pair ascending, rows ascending) order until
// `budget` pairs have passed, and counts the rest in bulk per value
// pair. Sets stats->raw_pairs and stats->dropped rather than adding to
// them, so a second call leaves the same stats.
template <typename Sink>
void ExpandRowPairs(const std::vector<AttributePairs>& attributes,
                    std::uint64_t budget, const Sink& sink,
                    LshStats* stats) {
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  for (const AttributePairs& attr : attributes) {
    const IdLists& rows = attr.rows_by_value;
    const IdLists& pairs = attr.value_pairs;
    for (std::size_t va = 0; va + 1 < pairs.begin.size(); ++va) {
      const std::uint32_t* ra = rows.ids.data() + rows.begin[va];
      const std::uint64_t na = rows.begin[va + 1] - rows.begin[va];
      for (std::size_t p = pairs.begin[va]; p < pairs.begin[va + 1]; ++p) {
        const std::uint32_t vb = pairs.ids[p];
        const bool self = vb == va;
        const std::uint32_t* rb = rows.ids.data() + rows.begin[vb];
        const std::uint64_t nb = rows.begin[vb + 1] - rows.begin[vb];
        const std::uint64_t total = self ? na * (na - 1) / 2 : na * nb;
        std::uint64_t left = std::min(total, budget - emitted);
        emitted += left;
        dropped += total - left;
        for (std::uint64_t x = 0; left > 0; ++x) {
          for (std::uint64_t y = self ? x + 1 : 0; y < nb && left > 0;
               ++y, --left) {
            sink(std::min(ra[x], rb[y]), std::max(ra[x], rb[y]));
          }
        }
      }
    }
  }
  stats->raw_pairs = emitted;
  stats->dropped = dropped;
}

}  // namespace

std::vector<std::uint64_t> CollectNearPairs(const Relation& relation,
                                            const ResolvedMetrics& resolved,
                                            const LshOptions& options,
                                            LshStats* stats) {
  std::vector<std::uint64_t> out;
  LshStats local;
  const std::uint64_t n = relation.num_rows();
  if (!options.enabled || n < 2) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  // Pre-dedup expansion budget (saturating): the surfaced set is capped
  // at max_candidates AFTER global dedup, so collecting a small multiple
  // bounds peak memory without biasing what survives the final cut.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t expansion_budget = options.max_candidates > kMax / 2
                                             ? kMax
                                             : options.max_candidates * 2;

  // Row pairs grouped by lower row, hence in triangular-index order.
  // Only the lists that reach the output are sorted.
  IdLists by_row;
  {
    std::vector<AttributePairs> attributes;
    for (std::size_t a = 0; a < resolved.num_attributes(); ++a) {
      const BlockingFamily family = resolved.metrics[a]->blocking_family();
      if (family == BlockingFamily::kNone) continue;
      attributes.push_back(AttributeCandidates(
          relation, resolved, a, family, options, &local.skipped_buckets));
    }
    by_row = GroupPairs(n, n, options.max_candidates, [&](const auto& sink) {
      ExpandRowPairs(attributes, expansion_budget, sink, &local);
    });
  }

  local.candidate_pairs = by_row.ids.size();
  const std::uint64_t keep =
      std::min<std::uint64_t>(local.candidate_pairs, options.max_candidates);
  local.dropped += local.candidate_pairs - keep;
  out.reserve(keep);
  for (std::uint64_t lo = 0; out.size() < keep; ++lo) {
    const std::uint64_t row_start = EncodeTriangularPair(lo, lo + 1, n);
    for (std::size_t p = by_row.begin[lo];
         p < by_row.begin[lo + 1] && out.size() < keep; ++p) {
      out.push_back(row_start + (by_row.ids[p] - lo - 1));
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace dd::approx
