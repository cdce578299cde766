#include "metric/metric.h"

#include <memory>
#include <string>
#include <vector>

namespace dd {

namespace {

// The default one-to-many form: BoundedDistance pair by pair.
class PairwiseRows : public OneToManyDistances {
 public:
  PairwiseRows(const DistanceMetric& metric,
               const std::vector<const std::string*>& values, double cap)
      : metric_(metric), values_(values), cap_(cap) {}

  void Row(std::size_t i, std::size_t j_begin, std::size_t j_end,
           double* out) const override {
    for (std::size_t j = j_begin; j < j_end; ++j) {
      out[j - j_begin] = metric_.BoundedDistance(*values_[i], *values_[j], cap_);
    }
  }

 private:
  const DistanceMetric& metric_;
  const std::vector<const std::string*>& values_;
  double cap_;
};

}  // namespace

std::unique_ptr<OneToManyDistances> DistanceMetric::OneToMany(
    const std::vector<const std::string*>& values, double cap) const {
  return std::make_unique<PairwiseRows>(*this, values, cap);
}

}  // namespace dd
