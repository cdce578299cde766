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

  void Row(std::uint32_t i, const std::uint32_t* js, std::size_t count,
           double* out) const override {
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = metric_.BoundedDistance(*values_[i], *values_[js[k]], cap_);
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
