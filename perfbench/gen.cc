#include "gen.h"

#include <array>
#include <cctype>
#include <string_view>

namespace perfbench {
namespace {

template <typename Items>
const auto& Pick(const Items& items, Rng& rng) {
  return items[rng.Below(std::size(items))];
}

// One random character edit: substitute, insert, delete or transpose.
void Typo(std::string* s, Rng& rng) {
  const char c = static_cast<char>('a' + rng.Below(26));
  const std::size_t n = s->size();
  switch (n == 0 ? 1 : rng.Below(4)) {
    case 0: (*s)[rng.Below(n)] = c; break;
    case 1: s->insert(s->begin() + static_cast<long>(rng.Below(n + 1)), c); break;
    case 2: s->erase(rng.Below(n), 1); break;
    default:
      if (n >= 2) {
        const std::size_t i = rng.Below(n - 1);
        std::swap((*s)[i], (*s)[i + 1]);
      }
  }
}

// `canonical` with exactly `typos` random edits. Duplicates choose
// their number of edits and format variants from their position in the
// cluster, not at random, so the count of distinct values — which sets
// the cost of distance evaluation — is the same for every seed.
std::string Noisy(std::string canonical, Rng& rng, std::size_t typos) {
  for (std::size_t k = 0; k < typos; ++k) Typo(&canonical, rng);
  return canonical;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Replaces every occurrence of `from` with `to`.
std::string Abbreviate(std::string s, std::string_view from, std::string_view to) {
  for (std::size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

// Groups rows into entities of [lo, hi] duplicates until `rows` rows
// exist; `entity(dups, &rows)` appends the duplicates of one entity.
// Cluster sizes cycle through lo..hi.
template <typename F>
Table Clusters(std::vector<std::string> columns, std::size_t rows,
               std::size_t lo, std::size_t hi, F entity) {
  Table t{std::move(columns), {}};
  t.rows.reserve(rows + hi);
  for (std::size_t e = 0; t.rows.size() < rows; ++e) {
    entity(lo + e % (hi - lo + 1), &t.rows);
  }
  t.rows.resize(rows);
  return t;
}

// Pronounceable synthetic words, so that vocabularies are large (real
// bibliographies rarely repeat names and titles) without long lists.
std::vector<std::string> Words(std::size_t count, std::size_t min_syllables,
                               std::size_t max_syllables, bool capital, std::uint64_t seed) {
  static constexpr std::string_view kOnsets[] = {"b", "br", "c", "d", "f", "g", "gr", "h",
                                                 "k", "l", "m", "n", "p", "r", "s", "st",
                                                 "t", "tr", "v", "w", "z"};
  static constexpr std::string_view kNuclei[] = {"a", "e", "i", "o", "u", "ai", "ei", "ou"};
  static constexpr std::string_view kCodas[] = {"", "", "n", "r", "s", "l", "m", "t", "x"};
  Rng rng(seed);
  std::vector<std::string> words(count);
  for (std::string& w : words) {
    const std::size_t syllables = min_syllables + rng.Below(max_syllables - min_syllables + 1);
    for (std::size_t k = 0; k < syllables; ++k) {
      w += kOnsets[rng.Below(std::size(kOnsets))];
      w += kNuclei[rng.Below(std::size(kNuclei))];
      w += kCodas[rng.Below(std::size(kCodas))];
    }
    if (capital) w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
  }
  return words;
}

struct Venue {
  std::string_view name, address, publisher, editor;
};
constexpr std::array<Venue, 14> kVenues = {{
    {"Proceedings of the International Conference on Data Management",
     "1828 L Street NW, Washington", "Institute of Data Press", "Marta Keller"},
    {"Proceedings of the Symposium on Information Retrieval",
     "77 Water Street, New York", "Computing Society Books", "Ravi Menon"},
    {"Transactions on Knowledge Systems", "77 Water Street, New York",
     "Computing Society Books", "Helga Brandt"},
    {"Journal of Data Quality Research", "12 Kingsway, London",
     "Albion Academic", "Colin Ashby"},
    {"Proceedings of the International Conference on Machine Learning Systems",
     "400 Market Street, San Francisco", "Golden Gate Publishing", "Ana Ruiz"},
    {"Proceedings of the Workshop on Web Databases", "9 Rue Cler, Paris",
     "Editions Savantes", "Louis Marchand"},
    {"Journal of Approximate Reasoning", "Herengracht 400, Amsterdam",
     "Lowlands Science", "Pieter de Vries"},
    {"Transactions on Database Theory", "Herengracht 400, Amsterdam",
     "Lowlands Science", "Anouk Jansen"},
    {"Proceedings of the Conference on Very Large Knowledge Bases",
     "5 Harbour Road, Sydney", "Southern Cross Press", "Grace Liu"},
    {"Bulletin of the Technical Committee on Data Engineering",
     "1828 L Street NW, Washington", "Institute of Data Press", "Omar Haddad"},
    {"Journal of Intelligent Information Systems", "Am Markt 3, Heidelberg",
     "Neckar Verlag", "Jonas Weber"},
    {"Proceedings of the Symposium on Principles of Data Systems",
     "77 Water Street, New York", "Computing Society Books", "Irene Costa"},
    {"Information Processing Letters", "Herengracht 400, Amsterdam",
     "Lowlands Science", "Bram Visser"},
    {"Proceedings of the Pacific Conference on Data Mining",
     "2-1 Hitotsubashi, Tokyo", "Kanto Academic", "Kenji Mori"},
}};

std::string ShortVenue(std::string v) {
  v = Abbreviate(std::move(v), "Proceedings of the", "Proc.");
  v = Abbreviate(std::move(v), "International", "Intl.");
  v = Abbreviate(std::move(v), "Conference", "Conf.");
  v = Abbreviate(std::move(v), "Transactions", "Trans.");
  return Abbreviate(std::move(v), "Journal", "J.");
}

}  // namespace

Table CoraLike(std::size_t rows, std::uint64_t seed) {
  static const std::vector<std::string> kFirst = Words(300, 2, 3, true, 11);
  static const std::vector<std::string> kLast = Words(3000, 2, 4, true, 12);
  static const std::vector<std::string> kWords = Words(4000, 1, 4, false, 13);
  Rng rng(seed);
  return Clusters(
      {"author", "title", "venue", "year", "address", "publisher", "editor"},
      rows, 2, 5, [&](std::size_t dups, auto* out) {
        const std::size_t authors = 1 + rng.Below(2);
        std::string first[2], last[2];
        for (std::size_t a = 0; a < authors; ++a) {
          first[a] = Pick(kFirst, rng);
          last[a] = Pick(kLast, rng);
        }
        std::string title;
        for (std::size_t w = 0, n = 4 + rng.Below(5); w < n; ++w) {
          if (w > 0) title += ' ';
          title += Pick(kWords, rng);
        }
        const Venue& venue = Pick(kVenues, rng);
        const int year = 1985 + static_cast<int>(rng.Below(27));
        for (std::size_t d = 0; d < dups; ++d) {
          std::string author;
          for (std::size_t a = 0; a < authors; ++a) {
            if (a > 0) author += " and ";
            if (d % 2 == 1) {
              author += first[a][0];
              author += '.';
            } else {
              author += first[a];
            }
            author += ' ';
            author += last[a];
          }
          std::string v(venue.name);
          if (d % 2 == 1) v = ShortVenue(std::move(v));
          // Full or abbreviated year: "1994" or "'94".
          std::string y = d % 3 == 1 ? "'" : std::to_string(year / 100);
          y += std::to_string(year % 100 + 100).substr(1);
          out->push_back({Noisy(std::move(author), rng, d % 3 == 2),
                          Noisy(title, rng, d % 3), Noisy(std::move(v), rng, d % 3 == 1),
                          std::move(y), Noisy(std::string(venue.address), rng, d * 2 % 3),
                          Noisy(std::string(venue.publisher), rng, d % 2),
                          d % 4 == 3 ? Lower(std::string(venue.editor))
                                     : Noisy(std::string(venue.editor), rng, d % 3 == 2)});
        }
      });
}

namespace {

struct City {
  std::string_view name;
  std::array<std::string_view, 6> streets;
};
constexpr std::array<City, 8> kCities = {{
    {"Baltimore", {"Fells Point Wharf", "Charles Village Row", "Hampden Avenue",
                   "Canton Square", "Mount Vernon Place", "Federal Hill Steps"}},
    {"Portland", {"Alberta Arts Lane", "Hawthorne Boulevard", "Pearl Mews",
                  "Sellwood Ferry Road", "Division Orchard", "Mississippi Yard"}},
    {"Nashville", {"Music Row Circle", "Germantown Commons", "Twelve South Walk",
                   "Belmont Ridge", "Sylvan Park Loop", "East Bank Landing"}},
    {"Milwaukee", {"Brady Street Bend", "Bay View Terrace", "Walkers Point Way",
                   "Riverwest Crossing", "Third Ward Quay", "Sherman Park Oval"}},
    {"Sacramento", {"Midtown Grid Lane", "Land Park Drive", "Oak Park Junction",
                    "Old Town Levee", "Curtis Park Green", "Tahoe Park Trail"}},
    {"Pittsburgh", {"Lawrenceville Butler", "Squirrel Hill Forbes", "Strip District Pier",
                    "Shadyside Walnut", "Bloomfield Liberty", "Mount Washington Incline"}},
    {"Savannah", {"Forsyth Park Gate", "River Street Cobble", "Abercorn Square",
                  "Jones Street Oaks", "Starland Yard", "Thunderbolt Marina"}},
    {"Tucson", {"Fourth Avenue Mercado", "Sam Hughes Path", "Barrio Viejo Court",
                "Catalina Foothills Way", "Armory Park Plaza", "Sabino Canyon Road"}},
}};
constexpr std::array<std::string_view, 20> kNameWords = {
    "Copper", "Lantern", "Olive",  "Harbor", "Saffron", "Juniper", "Maple",
    "Ember",  "Fig",     "Anchor", "Basil",  "Cedar",   "Drift",   "Garnet",
    "Hollow", "Indigo",  "Kettle", "Lotus",  "Marigold", "Nettle"};
constexpr std::array<std::string_view, 8> kNameKinds = {
    "Kitchen", "Bistro", "Tavern", "Cafe", "Grill", "Diner", "Eatery", "Table"};
constexpr std::array<std::string_view, 10> kTypes = {
    "italian", "mexican", "thai",    "american", "french",
    "indian",  "seafood", "vietnamese", "steakhouse", "vegetarian"};

}  // namespace

Table RestaurantLike(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  return Clusters({"name", "address", "city", "type"}, rows, 2, 4,
                  [&](std::size_t dups, auto* out) {
                    std::string name(Pick(kNameWords, rng));
                    name += ' ';
                    name += Pick(kNameWords, rng);
                    name += ' ';
                    name += Pick(kNameKinds, rng);
                    const City& city = Pick(kCities, rng);
                    std::string address = std::to_string(10 + rng.Below(990));
                    address += ' ';
                    address += Pick(city.streets, rng);
                    for (std::size_t d = 0; d < dups; ++d) {
                      out->push_back({Noisy(name, rng, d % 3), Noisy(address, rng, d * 2 % 3),
                                      Noisy(std::string(city.name), rng, d % 3 == 2),
                                      std::string(Pick(kTypes, rng))});
                    }
                  });
}

namespace {

struct Institution {
  std::string_view name, address;
};
constexpr std::array<Institution, 10> kInstitutions = {{
    {"Department of Computer Science, Northfield University", "12 College Green, Northfield"},
    {"School of Informatics, Eastbridge Institute", "4 Quarry Lane, Eastbridge"},
    {"Data Systems Group, Westmoor Polytechnic", "880 Lakeshore Road, Westmoor"},
    {"Laboratory for Information Science, Southport College", "21 Dock Street, Southport"},
    {"Faculty of Engineering, Highcliff University", "1 Observatory Hill, Highcliff"},
    {"Institute of Computing, Redvale Technical University", "300 Foundry Way, Redvale"},
    {"Center for Machine Intelligence, Ashford Academy", "55 Orchard Close, Ashford"},
    {"Graduate School of Systems, Kingsmere University", "9 Crown Parade, Kingsmere"},
    {"Research Lab for Networks, Brookhaven State", "640 Mill Race, Brookhaven"},
    {"Division of Applied Logic, Stonegate College", "17 Abbey Walk, Stonegate"},
}};
struct Topic {
  std::string_view subject;
  std::array<std::string_view, 6> keywords;
};
constexpr std::array<Topic, 8> kTopics = {{
    {"databases", {"query", "index", "transaction", "schema", "storage", "optimizer"}},
    {"machine learning", {"classifier", "kernel", "gradient", "training", "feature", "ensemble"}},
    {"networking", {"routing", "packet", "protocol", "latency", "congestion", "wireless"}},
    {"security", {"encryption", "attack", "privacy", "authentication", "malware", "key"}},
    {"theory", {"complexity", "approximation", "graph", "bound", "proof", "reduction"}},
    {"information retrieval", {"ranking", "document", "relevance", "search", "term", "corpus"}},
    {"operating systems", {"scheduler", "kernel", "memory", "file", "process", "virtualization"}},
    {"human computer interaction", {"user", "interface", "study", "gesture", "display", "usability"}},
}};

}  // namespace

Table CiteseerLike(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  return Clusters({"address", "affiliation", "description", "subject"}, rows, 2, 5,
                  [&](std::size_t dups, auto* out) {
                    const Institution& inst = Pick(kInstitutions, rng);
                    const Topic& topic = Pick(kTopics, rng);
                    for (std::size_t d = 0; d < dups; ++d) {
                      std::string description;
                      for (std::size_t w = 0; w < 4; ++w) {
                        if (w > 0) description += ' ';
                        description += Pick(topic.keywords, rng);
                      }
                      out->push_back({Noisy(std::string(inst.address), rng, d % 3),
                                      Noisy(std::string(inst.name), rng, d * 2 % 3),
                                      std::move(description),
                                      Noisy(std::string(topic.subject), rng, d % 3 == 2)});
                    }
                  });
}

std::string ToCsvBytes(const Table& table) {
  std::string out;
  auto field = [&out](const std::string& v) {
    if (v.find_first_of(",\"\n\r") == std::string::npos) {
      out += v;
      return;
    }
    out += '"';
    for (char c : v) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  };
  auto line = [&](const std::vector<std::string>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      field(values[i]);
    }
    out += '\n';
  };
  line(table.columns);
  for (const auto& row : table.rows) line(row);
  return out;
}

}  // namespace perfbench
