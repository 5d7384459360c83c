// Output oracle of the benchmark. Everything here is computed from the raw
// stream records alone, apart from the engine and from the library's batch
// miners: the window's true supports, its frequent itemsets (an Eclat pass
// over per-item slot bitsets), and the properties every release must have.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/stream_engine.h"

namespace perfbench {

using butterfly::Item;
using butterfly::Support;

/// The last H records of one stream, as sorted item lists in a ring.
class WindowOracle {
 public:
  explicit WindowOracle(size_t capacity);

  void Push(const std::vector<Item>& items);
  size_t size() const { return size_; }

  /// Recounts the window: item supports, and a slot bitset for every item
  /// whose support reaches \p min_support. Call once per release, before
  /// Support() and Frequent().
  void Scan(Support min_support);

  /// True support of a sorted itemset in the scanned window.
  Support SupportOf(const std::vector<Item>& itemset) const;

  /// Every frequent itemset of the scanned window with its support, in
  /// lexicographic order of the sorted item lists.
  std::vector<std::pair<std::vector<Item>, Support>> Frequent() const;

 private:
  size_t capacity_;
  size_t words_;
  size_t head_ = 0;  ///< next slot to overwrite once full
  size_t size_ = 0;
  std::vector<std::vector<Item>> slots_;
  Support min_support_ = 0;
  std::unordered_map<Item, Support> counts_;
  std::vector<Item> frequent_items_;  ///< ascending
  std::unordered_map<Item, std::vector<uint64_t>> bits_;
};

/// The release properties and utility figures of one engine's stream of
/// releases. One checker per engine: it remembers the previous release for
/// the republish check and sums the per-release epsilon for the ledger.
class ReleaseChecker {
 public:
  ReleaseChecker(const butterfly::ButterflyConfig& config, Support window);

  /// Checks one release of the window \p oracle holds; \p oracle must
  /// already be Scan()ned at the config's min support.
  void Check(const butterfly::ReleaseResult& result, const WindowOracle& oracle);

  size_t checked() const { return checked_; }
  size_t violations() const { return violations_; }
  const std::vector<std::string>& first_violations() const { return messages_; }

  /// Sums over checked releases (each release's mean, not each itemset).
  double pred_sum() const { return pred_sum_; }
  size_t pred_releases() const { return pred_releases_; }
  double ropp_sum() const { return ropp_sum_; }
  size_t ropp_releases() const { return ropp_releases_; }

 private:
  void Violate(const std::string& what);

  butterfly::ButterflyConfig config_;
  Support window_;
  int64_t alpha_;
  double min_variance_;

  /// The previous release: (itemset, true support, released support),
  /// sorted by itemset.
  struct Kept {
    std::vector<Item> items;
    Support truth;
    Support released;
  };
  std::vector<Kept> previous_;
  double epsilon_sum_ = 0;

  size_t checked_ = 0;
  size_t violations_ = 0;
  std::vector<std::string> messages_;
  double pred_sum_ = 0;
  size_t pred_releases_ = 0;
  double ropp_sum_ = 0;
  size_t ropp_releases_ = 0;
};

/// Rate of order-preserved pairs over (true, sanitized) support pairs: a
/// pair with T(I) < T(J) keeps its order iff T~(I) <= T~(J); a tied pair
/// iff T~(I) == T~(J). Counted in O(n log n) by sorting and merge-counting
/// inversions.
double OrderPreservedRate(std::vector<std::pair<Support, Support>> pairs);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
