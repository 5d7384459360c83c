#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "policy/release_policy.h"

namespace perfbench {

using butterfly::ReleasePolicyKind;
using butterfly::SanitizedItemset;

namespace {

std::string Render(const std::vector<Item>& items) {
  std::ostringstream out;
  out << '{';
  for (size_t i = 0; i < items.size(); ++i) out << (i ? "," : "") << items[i];
  out << '}';
  return out.str();
}

/// Eclat step: \p items (ascending) are the frequent one-item extensions
/// of \p prefix, with their supports and slot bitsets (\p words each, back
/// to back in \p bits). Emits each extended itemset, then recurses into the
/// pairwise intersections that stay frequent.
void Expand(std::vector<Item>* prefix, const std::vector<Item>& items,
            const std::vector<Support>& supports, const uint64_t* bits,
            size_t words, Support min_support,
            std::vector<std::pair<std::vector<Item>, Support>>* out) {
  std::vector<Item> child_items;
  std::vector<Support> child_supports;
  std::vector<uint64_t> child_bits;
  for (size_t i = 0; i < items.size(); ++i) {
    prefix->push_back(items[i]);
    out->emplace_back(*prefix, supports[i]);
    child_items.clear();
    child_supports.clear();
    child_bits.clear();
    const uint64_t* a = bits + i * words;
    for (size_t j = i + 1; j < items.size(); ++j) {
      const uint64_t* b = bits + j * words;
      Support support = 0;
      for (size_t w = 0; w < words; ++w) support += std::popcount(a[w] & b[w]);
      if (support < min_support) continue;
      child_items.push_back(items[j]);
      child_supports.push_back(support);
      for (size_t w = 0; w < words; ++w) child_bits.push_back(a[w] & b[w]);
    }
    if (!child_items.empty()) {
      Expand(prefix, child_items, child_supports, child_bits.data(), words,
             min_support, out);
    }
    prefix->pop_back();
  }
}

}  // namespace

WindowOracle::WindowOracle(size_t capacity)
    : capacity_(capacity), words_((capacity + 63) / 64), slots_(capacity) {}

void WindowOracle::Push(const std::vector<Item>& items) {
  slots_[head_] = items;
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

void WindowOracle::Scan(Support min_support) {
  min_support_ = min_support;
  counts_.clear();
  for (size_t s = 0; s < size_; ++s) {
    for (Item item : slots_[s]) ++counts_[item];
  }
  frequent_items_.clear();
  for (const auto& [item, count] : counts_) {
    if (count >= min_support) frequent_items_.push_back(item);
  }
  std::sort(frequent_items_.begin(), frequent_items_.end());
  bits_.clear();
  for (Item item : frequent_items_) bits_[item].assign(words_, 0);
  for (size_t s = 0; s < size_; ++s) {
    for (Item item : slots_[s]) {
      auto it = bits_.find(item);
      if (it != bits_.end()) it->second[s / 64] |= uint64_t{1} << (s % 64);
    }
  }
}

Support WindowOracle::SupportOf(const std::vector<Item>& itemset) const {
  if (itemset.empty()) return static_cast<Support>(size_);
  std::vector<const std::vector<uint64_t>*> rows;
  for (Item item : itemset) {
    auto it = bits_.find(item);
    if (it == bits_.end()) {
      // An item below the threshold: count the itemset record by record.
      Support count = 0;
      for (size_t s = 0; s < size_; ++s) {
        if (std::includes(slots_[s].begin(), slots_[s].end(), itemset.begin(),
                          itemset.end())) {
          ++count;
        }
      }
      return count;
    }
    rows.push_back(&it->second);
  }
  Support count = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t word = ~uint64_t{0};
    for (const std::vector<uint64_t>* row : rows) word &= (*row)[w];
    count += std::popcount(word);
  }
  return count;
}

std::vector<std::pair<std::vector<Item>, Support>> WindowOracle::Frequent()
    const {
  // Pairs are counted straight from the records into a triangular matrix
  // (cheaper than intersecting every pair of item bitsets); only the
  // frequent pairs get bitsets, and deeper levels intersect those.
  const size_t n = frequent_items_.size();
  std::unordered_map<Item, size_t> index;
  for (size_t i = 0; i < n; ++i) index.emplace(frequent_items_[i], i);
  std::vector<uint32_t> pairs(n * n, 0);
  std::vector<size_t> present;
  for (size_t s = 0; s < size_; ++s) {
    present.clear();
    for (Item item : slots_[s]) {
      auto it = index.find(item);
      if (it != index.end()) present.push_back(it->second);
    }
    for (size_t a = 0; a < present.size(); ++a) {
      for (size_t b = a + 1; b < present.size(); ++b) {
        ++pairs[present[a] * n + present[b]];
      }
    }
  }

  std::vector<std::pair<std::vector<Item>, Support>> out;
  std::vector<Item> prefix;
  std::vector<Item> child_items;
  std::vector<Support> child_supports;
  std::vector<uint64_t> child_bits;
  for (size_t i = 0; i < n; ++i) {
    const Item item = frequent_items_[i];
    prefix.assign(1, item);
    out.emplace_back(prefix, counts_.at(item));
    child_items.clear();
    child_supports.clear();
    child_bits.clear();
    const std::vector<uint64_t>& a = bits_.at(item);
    for (size_t j = i + 1; j < n; ++j) {
      if (static_cast<Support>(pairs[i * n + j]) < min_support_) continue;
      const std::vector<uint64_t>& b = bits_.at(frequent_items_[j]);
      child_items.push_back(frequent_items_[j]);
      child_supports.push_back(static_cast<Support>(pairs[i * n + j]));
      for (size_t w = 0; w < words_; ++w) child_bits.push_back(a[w] & b[w]);
    }
    if (!child_items.empty()) {
      Expand(&prefix, child_items, child_supports, child_bits.data(), words_,
             min_support_, &out);
    }
  }
  return out;
}

double OrderPreservedRate(std::vector<std::pair<Support, Support>> pairs) {
  const size_t n = pairs.size();
  if (n < 2) return 1.0;
  std::sort(pairs.begin(), pairs.end());
  const double total = static_cast<double>(n) * static_cast<double>(n - 1) / 2;
  double tie_pairs = 0;
  double tie_kept = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && pairs[j].first == pairs[i].first) ++j;
    const double g = static_cast<double>(j - i);
    tie_pairs += g * (g - 1) / 2;
    for (size_t k = i; k < j;) {
      size_t m = k;
      while (m < j && pairs[m].second == pairs[k].second) ++m;
      const double e = static_cast<double>(m - k);
      tie_kept += e * (e - 1) / 2;
      k = m;
    }
    i = j;
  }
  // Inversions of the sanitized sequence in true-support order: exactly the
  // strictly ordered pairs whose order the release flipped.
  std::vector<Support> seq(n);
  for (size_t i = 0; i < n; ++i) seq[i] = pairs[i].second;
  std::vector<Support> scratch(n);
  double inversions = 0;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      size_t a = lo;
      size_t b = mid;
      size_t k = lo;
      while (a < mid && b < hi) {
        if (seq[a] <= seq[b]) {
          scratch[k++] = seq[a++];
        } else {
          inversions += static_cast<double>(mid - a);
          scratch[k++] = seq[b++];
        }
      }
      while (a < mid) scratch[k++] = seq[a++];
      while (b < hi) scratch[k++] = seq[b++];
    }
    seq.swap(scratch);
  }
  return (tie_kept + (total - tie_pairs - inversions)) / total;
}

ReleaseChecker::ReleaseChecker(const butterfly::ButterflyConfig& config,
                               Support window)
    : config_(config), window_(window) {
  // The paper's noise region: alpha = ceil(sqrt(1 + 6 delta K^2)) - 1, whose
  // discrete uniform noise over alpha + 1 values must reach delta K^2 / 2.
  const double k = static_cast<double>(config.vulnerable_support);
  alpha_ = static_cast<int64_t>(std::ceil(std::sqrt(1 + 6 * config.delta * k * k))) - 1;
  min_variance_ = config.delta * k * k / 2;
}

void ReleaseChecker::Violate(const std::string& what) {
  ++violations_;
  if (messages_.size() < 8) {
    messages_.push_back("release " + std::to_string(checked_) + ": " + what);
  }
}

void ReleaseChecker::Check(const butterfly::ReleaseResult& result,
                           const WindowOracle& oracle) {
  const butterfly::SanitizedOutput& release = result.output;
  const bool butterfly_policy = config_.policy == ReleasePolicyKind::kButterfly;
  const Support min_support = config_.min_support;

  std::vector<const SanitizedItemset*> items;
  items.reserve(release.size());
  for (const SanitizedItemset& item : release.items()) items.push_back(&item);
  std::sort(items.begin(), items.end(),
            [](const SanitizedItemset* a, const SanitizedItemset* b) {
              return a->itemset.items() < b->itemset.items();
            });

  std::vector<std::pair<Support, Support>> pairs;  // (true, sanitized)
  pairs.reserve(items.size());
  std::vector<Support> truths(items.size());
  struct Seen {
    const std::vector<Item>* items;
    Support truth;
    Support released;
  };
  std::vector<Seen> current;  // in item order, like items
  current.reserve(items.size());
  double pred = 0;
  std::vector<Item> distinct_items;
  for (size_t r = 0; r < items.size(); ++r) {
    const SanitizedItemset* item = items[r];
    const std::vector<Item>& key = item->itemset.items();
    const Support truth = oracle.SupportOf(key);
    const Support released = item->sanitized_support;
    truths[r] = truth;
    if (truth < min_support) {
      Violate("released " + Render(key) + " has true support " +
              std::to_string(truth) + " < C");
      continue;
    }
    pairs.emplace_back(truth, released);
    current.push_back(Seen{&key, truth, released});
    const double err = static_cast<double>(released - truth);
    pred += err * err / (static_cast<double>(truth) * static_cast<double>(truth));
    distinct_items.insert(distinct_items.end(), key.begin(), key.end());

    if (butterfly_policy) {
      const double residual = static_cast<double>(released - truth);
      const double beta = item->bias;
      const double sigma2 = item->variance;
      if (std::abs(residual - beta) > static_cast<double>(alpha_) / 2 + 0.5 + 1e-9) {
        Violate(Render(key) + ": residual " + std::to_string(residual) +
                " outside the noise region around bias " + std::to_string(beta));
      }
      const double budget = config_.epsilon * static_cast<double>(truth) *
                            static_cast<double>(truth);
      if (beta * beta + sigma2 > budget * (1 + 1e-9)) {
        Violate(Render(key) + ": beta^2 + sigma^2 = " +
                std::to_string(beta * beta + sigma2) + " > eps T^2 = " +
                std::to_string(budget));
      }
      if (sigma2 < min_variance_ * (1 - 1e-12)) {
        Violate(Render(key) + ": sigma^2 = " + std::to_string(sigma2) +
                " < delta K^2 / 2");
      }
      if (config_.republish_cache) {
        auto prev = std::lower_bound(
            previous_.begin(), previous_.end(), key,
            [](const Kept& k, const std::vector<Item>& x) { return k.items < x; });
        if (prev != previous_.end() && prev->items == key &&
            prev->truth == truth && prev->released != released) {
          Violate(Render(key) + ": support unchanged at " +
                  std::to_string(truth) + " but republished " +
                  std::to_string(released) + " after " +
                  std::to_string(prev->released));
        }
      }
    } else if (released < 0 || released > window_) {
      Violate(Render(key) + ": released support " + std::to_string(released) +
              " outside [0, H]");
    }
  }

  if (butterfly_policy) {
    // Completeness: the release is exactly the window's frequent itemsets.
    const auto frequent = oracle.Frequent();
    if (frequent.size() != items.size()) {
      Violate("release has " + std::to_string(items.size()) +
              " itemsets, the window has " + std::to_string(frequent.size()) +
              " frequent itemsets");
    }
    size_t r = 0;
    for (const auto& [key, support] : frequent) {
      while (r < items.size() && items[r]->itemset.items() < key) ++r;
      if (r == items.size() || items[r]->itemset.items() != key) {
        Violate("frequent " + Render(key) + " (support " +
                std::to_string(support) + ") missing from the release");
      } else if (truths[r] != support) {
        Violate(Render(key) + ": support count " + std::to_string(truths[r]) +
                " disagrees with " + std::to_string(support) +
                " from the enumeration");
      }
    }
  } else {
    const size_t k = config_.policy_top_k;
    if (config_.policy == ReleasePolicyKind::kHeavyHitter && items.size() > k) {
      Violate("heavyhitter released " + std::to_string(items.size()) +
              " itemsets > top-k " + std::to_string(k));
    }
    if (config_.policy == ReleasePolicyKind::kPrivBasis) {
      std::sort(distinct_items.begin(), distinct_items.end());
      const size_t basis = static_cast<size_t>(
          std::unique(distinct_items.begin(), distinct_items.end()) -
          distinct_items.begin());
      if (basis > k) {
        Violate("privbasis release uses " + std::to_string(basis) +
                " distinct items > top-k " + std::to_string(k));
      }
    }
  }

  // Epsilon ledger: the reported cumulative budget against the sum of the
  // per-release charges (constant for the continual estimator).
  const butterfly::EngineStats& stats = result.stats;
  epsilon_sum_ += stats.epsilon_spent;
  const double expected = config_.policy == ReleasePolicyKind::kContinual
                              ? config_.policy_epsilon
                              : epsilon_sum_;
  if (butterfly_policy ? (stats.epsilon_spent != 0 || stats.epsilon_cumulative != 0)
                       : std::abs(stats.epsilon_cumulative - expected) >
                             1e-9 * std::max(1.0, expected)) {
    Violate("epsilon ledger: reported cumulative " +
            std::to_string(stats.epsilon_cumulative) + ", expected " +
            std::to_string(expected));
  }
  if (!butterfly_policy && stats.epsilon_spent <= 0) {
    Violate("DP release charged no epsilon");
  }

  if (!pairs.empty()) {
    pred_sum_ += pred / static_cast<double>(pairs.size());
    ++pred_releases_;
  }
  if (pairs.size() >= 2) {
    ropp_sum_ += OrderPreservedRate(std::move(pairs));
    ++ropp_releases_;
  }
  previous_.clear();
  for (const Seen& seen : current) {
    previous_.push_back(Kept{*seen.items, seen.truth, seen.released});
  }
  ++checked_;
}

}  // namespace perfbench
