// Levenshtein kernels behind LevenshteinMetric, exposed individually so
// the equivalence tests and microbenchmarks can pit them against each
// other directly. All kernels operate on bytes: multi-byte (UTF-8)
// sequences count one unit per byte, which is consistent across kernels
// and therefore invisible to level bucketing.
//
// Kernel selection (levenshtein.cc):
//  * ReferenceDp — the O(|a|·|b|) two-row dynamic program; the ground
//    truth the others are tested against. Distance uses it when both
//    strings are longer than 64 bytes.
//  * Myers64 — the Myers/Hyyrö bit-parallel algorithm; one word of
//    column deltas per text character, O(|text|) for a pattern of at
//    most 64 bytes. Takes a cap: exact when the distance is <= cap,
//    cap + 1 as soon as the score exceeds cap plus the text still to
//    read. The pattern's match masks (Pattern) are built once and can
//    be reused across many texts; the one-to-many path
//    (LevenshteinMetric::OneToMany) assigns one per Row call — a dense
//    run of a value-pair table row, or the sparse sampled pairs of one
//    data row — into a thread-local Pattern.
//  * Banded — diagonal band of half-width `cap`; O(len·cap) and allowed
//    to stop as soon as the whole band exceeds the cap. BoundedDistance
//    uses it when both strings are longer than 64 bytes.
//  * BagDistance — a lower bound on the edit distance from character
//    histograms folded to 64 bins (CharHistogram). Folding can only
//    merge counts, which can only lower the bag distance, so it stays a
//    valid lower bound; OneToMany keeps one histogram per value and
//    rejects a pair by it before running a kernel.

#ifndef DD_METRIC_LEVENSHTEIN_H_
#define DD_METRIC_LEVENSHTEIN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace dd::lev {

// A cap that never stops a kernel early: the result is exact.
inline constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

// Reference two-row dynamic program. Exact; O(|a|·|b|) time,
// O(min(|a|,|b|)) space.
std::size_t ReferenceDp(std::string_view a, std::string_view b);

// Myers' per-byte match masks (Peq) of a pattern of at most 64 bytes.
// Reassigning clears only the slots the previous pattern set.
class Pattern {
 public:
  // Requires pattern.size() <= 64.
  void Assign(std::string_view pattern);

  std::size_t size() const { return size_; }
  std::uint64_t Mask(char c) const { return peq_[static_cast<unsigned char>(c)]; }

 private:
  std::uint64_t peq_[256] = {};
  char chars_[64] = {};  // the pattern, naming the slots to clear
  std::size_t size_ = 0;
};

// Capped Myers bit-parallel edit distance (Hyyrö's formulation) between
// `pattern` and `text`: exact when it is <= cap, else cap + 1.
std::size_t Myers64(const Pattern& pattern, std::string_view text,
                    std::size_t cap = kNoCap);

// Same, with the shorter of a and b as the pattern (a thread-local
// Pattern, so no per-call table fill). Requires min(|a|, |b|) <= 64.
std::size_t Myers64(std::string_view a, std::string_view b,
                    std::size_t cap = kNoCap);

// Banded early-exit variant: returns the exact distance whenever it is
// <= cap, and cap + 1 as soon as the distance provably exceeds cap.
// Requires cap < kNoCap / 2.
std::size_t Banded(std::string_view a, std::string_view b, std::size_t cap);

// Byte counts folded to 64 bins, saturating at 255.
using CharHistogram = std::array<std::uint8_t, 64>;

// Bin of byte `c`: letters fold case-insensitively to 0..25, digits to
// 26..35, every other byte to 36..63.
int CharBin(unsigned char c);

CharHistogram Histogram(std::string_view s);

// max(|A \ B|, |B \ A|) over the binned multisets: <= the edit distance
// of the strings the histograms were taken from.
std::size_t BagDistance(const CharHistogram& a, const CharHistogram& b);

}  // namespace dd::lev

#endif  // DD_METRIC_LEVENSHTEIN_H_
