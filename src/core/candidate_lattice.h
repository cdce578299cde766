// The candidate space C_Y (or C_X): the full lattice of threshold-level
// combinations {0..dmax}^dims with the dominance partial order of paper
// Definition 2, an alive-bitmap for pruning, and the processing orders
// studied in the paper (mid-first, top-first) plus two extras.

#ifndef DD_CORE_CANDIDATE_LATTICE_H_
#define DD_CORE_CANDIDATE_LATTICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pattern.h"

namespace dd {

// Order in which candidates of C_Y are visited (paper §V):
//   kMidFirst    — middle level-sums first; finds a large Vmax early when
//                  the initial bound is 0 (preferred for DA+PAP).
//   kTopFirst    — largest level-sums first; top patterns dominate the
//                  most candidates, maximizing prune() reach (preferred
//                  for DAP+PAP, which starts with a bound > 0).
//   kBottomFirst — smallest level-sums first (completes the study).
//   kLexicographic — plain index order (baseline).
enum class ProcessingOrder {
  kMidFirst,
  kTopFirst,
  kBottomFirst,
  kLexicographic,
};

const char* ProcessingOrderName(ProcessingOrder order);

// Dense lattice over (dmax+1)^dims cells. Cells are addressed by index
// (mixed-radix encoding, dimension 0 least significant) or by Levels.
//
// Pruning keeps an S0 floor: the lowest level sum a whole-lattice prune
// has killed. Every cell at or above the floor is dead without being
// visited, so an S0 prune costs O(dims * dmax) unless it needs on_kill
// callbacks, and a repeated S0 prune under an unchanged Vmax is free.
class CandidateLattice {
 public:
  CandidateLattice(std::size_t dims, int dmax);

  std::size_t dims() const { return dims_; }
  int dmax() const { return dmax_; }
  std::size_t size() const { return state_.size(); }
  std::size_t alive_count() const { return alive_count_; }

  bool IsAlive(std::size_t idx) const { return state_[idx] < floor_; }

  // Kills one cell (idempotent). Returns true when it was alive.
  bool Kill(std::size_t idx);

  // Decodes a cell index into threshold levels.
  Levels LevelsOf(std::size_t idx) const;

  // Encodes threshold levels into a cell index.
  std::size_t IndexOf(const Levels& levels) const;

  // The paper's prune(ϕ, q): kills every alive cell dominated by
  // `dominator` (component-wise <=) whose dependent quality is <= q.
  // Returns the number of cells killed. Passing the all-dmax pattern as
  // `dominator` implements the S0 prune (Proposition 1); the current
  // candidate implements S1 (Proposition 2).
  std::size_t Prune(const Levels& dominator, double max_quality);

  // Same, invoking `on_kill(cell_index)` for every cell this call kills
  // (used by the EXPLAIN recorder to attribute each pruned candidate to
  // the prune that removed it), in ascending index order. An empty
  // callback behaves like the two-argument overload.
  std::size_t Prune(const Levels& dominator, double max_quality,
                    const std::function<void(std::size_t)>& on_kill);

  // Visit order for the whole lattice under `order` (cell indices).
  static std::vector<std::uint32_t> MakeOrder(std::size_t dims, int dmax,
                                              ProcessingOrder order);

 private:
  static constexpr std::uint16_t kKilled = 0xFFFF;

  // Kills every cell with level sum in [min_sum, floor_) and lowers the
  // floor to min_sum.
  std::size_t LowerFloor(unsigned min_sum,
                         const std::function<void(std::size_t)>& on_kill);

  std::size_t dims_;
  int dmax_;
  std::vector<std::size_t> strides_;  // base^d per dimension
  // Per cell: its level sum while not individually killed, else kKilled.
  // A cell is alive iff state_ < floor_.
  std::vector<std::uint16_t> state_;
  // Alive cells per level sum; entries at or above floor_ are 0.
  std::vector<std::size_t> alive_by_sum_;
  unsigned floor_;  // dims * dmax + 1 until the first S0 prune
  std::size_t alive_count_;
};

}  // namespace dd

#endif  // DD_CORE_CANDIDATE_LATTICE_H_
