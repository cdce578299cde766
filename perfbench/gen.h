// Seeded generators of the benchmark's input relations. They live in
// the benchmark, not in the library, so that a change to the library's
// own synthetic generators (src/data) cannot change what is measured.
// Each generator emits a table whose rows come in duplicate clusters:
// the rows of one entity are typo/format variants of one canonical
// record, so small distances mark duplicates and the paper's rules hold
// with noise.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  std::size_t Below(std::size_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

struct Table {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

// cora(author, title, venue, year, address, publisher, editor): paper
// Rules 1 and 2. Exactly `rows` rows.
Table CoraLike(std::size_t rows, std::uint64_t seed);

// restaurant(name, address, city, type): paper Rule 3. `type` is drawn
// per row, independent of the entity.
Table RestaurantLike(std::size_t rows, std::uint64_t seed);

// citeseer(address, affiliation, description, subject): paper Rule 4.
Table CiteseerLike(std::size_t rows, std::uint64_t seed);

// RFC-4180 CSV text with a header line.
std::string ToCsvBytes(const Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
