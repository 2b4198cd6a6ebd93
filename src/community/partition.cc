#include "community/partition.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "core/checked_cast.h"

namespace bikegraph::community {

size_t Partition::CommunityCount() const {
  int32_t max_label = -1;
  for (int32_t c : assignment) {
    if (c > max_label) max_label = c;
  }
  return static_cast<size_t>(max_label + 1);
}

void Partition::Renumber() {
  // All algorithms in this module keep labels in [0, n), so a flat remap
  // table covers the common case without hashing; arbitrary labels (e.g.
  // hand-built partitions) fall back to a hash map.
  int32_t max_label = -1;
  bool flat_ok = true;
  for (int32_t c : assignment) {
    if (c < 0 || static_cast<size_t>(c) >= 4 * assignment.size() + 64) {
      flat_ok = false;
      break;
    }
    if (c > max_label) max_label = c;
  }
  if (flat_ok) {
    std::vector<int32_t> remap(static_cast<size_t>(max_label) + 1, -1);
    int32_t next = 0;
    for (int32_t& c : assignment) {
      if (remap[AsIndex(c)] < 0) remap[AsIndex(c)] = next++;
      c = remap[AsIndex(c)];
    }
    return;
  }
  std::unordered_map<int32_t, int32_t> remap;
  for (int32_t& c : assignment) {
    auto [it, inserted] = remap.emplace(c, static_cast<int32_t>(remap.size()));
    c = it->second;
    (void)inserted;
  }
}

std::vector<size_t> Partition::CommunitySizes() const {
  std::vector<size_t> sizes(CommunityCount(), 0);
  for (int32_t c : assignment) ++sizes[AsIndex(c)];
  return sizes;
}

Partition Partition::Trivial(size_t n) {
  Partition p;
  p.assignment.assign(n, 0);
  return p;
}

Partition Partition::Singletons(size_t n) {
  Partition p;
  p.assignment.resize(n);
  for (size_t i = 0; i < n; ++i) p.assignment[i] = static_cast<int32_t>(i);
  return p;
}

double NormalizedMutualInformation(const Partition& a, const Partition& b) {
  const size_t n = a.assignment.size();
  if (n == 0 || b.assignment.size() != n) return 0.0;
  std::map<std::pair<int32_t, int32_t>, double> joint;
  std::unordered_map<int32_t, double> pa, pb;
  for (size_t i = 0; i < n; ++i) {
    joint[{a.assignment[i], b.assignment[i]}] += 1.0;
    pa[a.assignment[i]] += 1.0;
    pb[b.assignment[i]] += 1.0;
  }
  const double dn = static_cast<double>(n);
  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    double pxy = count / dn;
    double px = pa[key.first] / dn;
    double py = pb[key.second] / dn;
    mi += pxy * std::log(pxy / (px * py));
  }
  double ha = 0.0, hb = 0.0;
  // lint: unordered-iter-ok: entropy sum is commutative; visit
  // order only perturbs FP rounding across stdlib implementations,
  // and NMI consumers compare against drift thresholds, not bits.
  for (const auto& [label, count] : pa) {
    double p = count / dn;
    ha -= p * std::log(p);
    (void)label;
  }
  // lint: unordered-iter-ok: same commutative entropy sum as the
  // pa loop above.
  for (const auto& [label, count] : pb) {
    double p = count / dn;
    hb -= p * std::log(p);
    (void)label;
  }
  if (ha <= 0.0 && hb <= 0.0) return 1.0;  // both trivial partitions
  double denom = std::sqrt(ha * hb);
  if (denom <= 0.0) return 0.0;
  return mi / denom;
}

}  // namespace bikegraph::community
