// Output checker of the benchmark, independent of src/: its own distance
// test and its own O(n^2) DBSCAN. Three parts:
//
//   * SampledCheck — for a seeded sample of points, counts eps-neighbours
//     by brute force over all n points and checks each sampled point's core
//     flag, that it shares a cluster with every core neighbour when core,
//     that its clusters are exactly those of its core neighbours when not
//     core, and that it is noise exactly when it has no core neighbour.
//   * FullCheck — a brute-force DBSCAN of a small instance, compared with
//     the library's labelling: core flags, the partition of core points up
//     to renaming of cluster ids, and every point's membership set.
//   * NegativeCheck — corrupts a correct labelling (one flipped core flag,
//     two merged clusters) and requires both checks above to reject it.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "pdbscan/pdbscan.h"

namespace perfbench {

template <int D>
bool Within(const pdbscan::Point<D>& a, const pdbscan::Point<D>& b,
            double eps2) {
  // Accumulated in dimension order, fl(sum + fl(d * d)): the DBSCAN
  // definition's distance test as a double computation.
  double s = 0;
  for (int k = 0; k < D; ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s <= eps2;
}

// Clusters of point i: its membership list when the labelling carries one,
// else its primary cluster (the lowest membership).
inline std::vector<int64_t> ClustersOf(const pdbscan::Clustering& c,
                                       size_t i) {
  if (c.membership_offsets.size() == c.cluster.size() + 1) {
    const auto m = c.memberships(i);
    return std::vector<int64_t>(m.begin(), m.end());
  }
  if (c.cluster[i] == pdbscan::Clustering::kNoise) return {};
  return {c.cluster[i]};
}

// Seeded sample for SampledCheck: `random` uniform indices plus up to
// `non_core` points the labelling marks non-core (where border and noise
// errors show).
inline std::vector<size_t> PickSample(const pdbscan::Clustering& c,
                                      uint64_t seed, size_t random,
                                      size_t non_core) {
  const size_t n = c.cluster.size();
  Rng rng(seed);
  std::vector<size_t> out;
  for (size_t k = 0; k < random && n > 0; ++k) out.push_back(rng.Below(n));
  size_t found = 0;
  for (size_t tries = 0; tries < 64 * non_core && found < non_core && n > 0;
       ++tries) {
    const size_t i = rng.Below(n);
    if (!c.is_core[i]) {
      out.push_back(i);
      ++found;
    }
  }
  return out;
}

// Returns the number of violations found (0 = labelling consistent at
// every sampled point); the first few are described in `why`.
template <int D>
size_t SampledCheck(std::span<const pdbscan::Point<D>> pts, double eps,
                    size_t min_pts, const pdbscan::Clustering& c,
                    std::span<const size_t> sample, std::string* why) {
  const double eps2 = eps * eps;
  size_t bad = 0;
  auto note = [&](size_t i, const char* what) {
    if (bad++ < 3 && why != nullptr) {
      *why += "point " + std::to_string(i) + ": " + what + "; ";
    }
  };
  if (c.cluster.size() != pts.size() || c.is_core.size() != pts.size()) {
    note(0, "labelling size differs from the input");
    return bad;
  }
  std::vector<size_t> nbrs;
  for (const size_t i : sample) {
    nbrs.clear();
    for (size_t j = 0; j < pts.size(); ++j) {
      if (Within<D>(pts[i], pts[j], eps2)) nbrs.push_back(j);
    }
    const bool core = nbrs.size() >= min_pts;
    if (core != (c.is_core[i] != 0)) {
      note(i, "core flag disagrees with the brute-force count");
      continue;
    }
    const std::vector<int64_t> mine = ClustersOf(c, i);
    std::set<int64_t> core_nbr_clusters;
    for (const size_t j : nbrs) {
      if (j != i && c.is_core[j]) {
        const std::vector<int64_t> cj = ClustersOf(c, j);
        core_nbr_clusters.insert(cj.begin(), cj.end());
      }
    }
    if (core) {
      if (mine.size() != 1) {
        note(i, "core point without exactly one cluster");
      } else if (!core_nbr_clusters.empty() &&
                 (core_nbr_clusters.size() != 1 ||
                  *core_nbr_clusters.begin() != mine[0])) {
        note(i, "core neighbours in another cluster");
      }
      continue;
    }
    if (core_nbr_clusters.empty()) {
      if (!mine.empty()) note(i, "point without core neighbour not noise");
      continue;
    }
    if (c.membership_offsets.size() == c.cluster.size() + 1) {
      if (std::set<int64_t>(mine.begin(), mine.end()) != core_nbr_clusters) {
        note(i, "border clusters differ from its core neighbours'");
      }
    } else if (c.cluster[i] != *core_nbr_clusters.begin()) {
      note(i, "border primary cluster is not its lowest core neighbour's");
    }
  }
  return bad;
}

// Brute-force DBSCAN: core flags and, per point, the sorted ids of the
// components of core points it belongs to (ids by first appearance).
struct BruteClustering {
  std::vector<uint8_t> core;
  std::vector<std::vector<int64_t>> members;
  size_t num_clusters = 0;
};

template <int D>
BruteClustering BruteDbscan(std::span<const pdbscan::Point<D>> pts,
                            double eps, size_t min_pts) {
  const size_t n = pts.size();
  const double eps2 = eps * eps;
  std::vector<std::vector<uint32_t>> nbrs(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (Within<D>(pts[i], pts[j], eps2)) {
        nbrs[i].push_back(static_cast<uint32_t>(j));
      }
    }
  }
  BruteClustering out;
  out.core.assign(n, 0);
  for (size_t i = 0; i < n; ++i) out.core[i] = nbrs[i].size() >= min_pts;
  // Components of core points by BFS over core-core eps edges.
  std::vector<int64_t> comp(n, -1);
  int64_t next = 0;
  std::vector<uint32_t> stack;
  for (size_t s = 0; s < n; ++s) {
    if (!out.core[s] || comp[s] >= 0) continue;
    comp[s] = next;
    stack.assign(1, static_cast<uint32_t>(s));
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      for (const uint32_t v : nbrs[u]) {
        if (out.core[v] && comp[v] < 0) {
          comp[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  out.num_clusters = static_cast<size_t>(next);
  out.members.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (out.core[i]) {
      out.members[i] = {comp[i]};
      continue;
    }
    std::set<int64_t> s;
    for (const uint32_t v : nbrs[i]) {
      if (out.core[v]) s.insert(comp[v]);
    }
    out.members[i].assign(s.begin(), s.end());
  }
  return out;
}

// Compares a labelling with the brute-force one: equal core flags, a
// bijection between cluster ids on core points, and equal membership sets
// under that bijection. Returns false with a reason on the first mismatch.
inline bool FullCheck(const BruteClustering& ref, const pdbscan::Clustering& c,
                      std::string* why) {
  const size_t n = ref.core.size();
  if (c.cluster.size() != n || c.is_core.size() != n) {
    *why = "labelling size differs from the input";
    return false;
  }
  std::unordered_map<int64_t, int64_t> to_ref, from_ref;
  for (size_t i = 0; i < n; ++i) {
    if ((c.is_core[i] != 0) != (ref.core[i] != 0)) {
      *why = "core flag of point " + std::to_string(i) + " differs";
      return false;
    }
    if (!ref.core[i]) continue;
    const std::vector<int64_t> mine = ClustersOf(c, i);
    if (mine.size() != 1) {
      *why = "core point " + std::to_string(i) + " not in exactly one cluster";
      return false;
    }
    const int64_t r = ref.members[i][0];
    const auto [a, fresh_a] = to_ref.emplace(mine[0], r);
    const auto [b, fresh_b] = from_ref.emplace(r, mine[0]);
    if (a->second != r || b->second != mine[0]) {
      *why = "partition of core points differs at point " + std::to_string(i);
      return false;
    }
  }
  if (to_ref.size() != ref.num_clusters || c.num_clusters != ref.num_clusters) {
    *why = "cluster count differs";
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<int64_t> mapped;
    for (const int64_t id : ClustersOf(c, i)) {
      const auto it = to_ref.find(id);
      if (it == to_ref.end()) {
        *why = "point " + std::to_string(i) + " in a cluster with no core";
        return false;
      }
      mapped.push_back(it->second);
    }
    std::sort(mapped.begin(), mapped.end());
    if (mapped != ref.members[i]) {
      *why = "memberships of point " + std::to_string(i) + " differ";
      return false;
    }
  }
  return true;
}

// Compares a primary-cluster labelling (what a TCP query response carries)
// with a reference clustering up to renaming of cluster ids: equal core
// flags, a bijection between the ids of core points, and every non-core
// point either noise in both or, under the bijection, in one of the
// reference's memberships of that point.
inline bool SameUpToRenaming(const std::vector<int64_t>& cluster,
                             const std::vector<uint8_t>& is_core,
                             const pdbscan::Clustering& ref, std::string* why) {
  const size_t n = ref.cluster.size();
  if (cluster.size() != n || is_core.size() != n) {
    *why = "labelling size differs";
    return false;
  }
  if (is_core != ref.is_core) {
    *why = "core flags differ";
    return false;
  }
  std::unordered_map<int64_t, int64_t> to_ref, from_ref;
  for (size_t i = 0; i < n; ++i) {
    if (!is_core[i]) continue;
    const auto [a, fa] = to_ref.emplace(cluster[i], ref.cluster[i]);
    const auto [b, fb] = from_ref.emplace(ref.cluster[i], cluster[i]);
    if (a->second != ref.cluster[i] || b->second != cluster[i]) {
      *why = "partition of core points differs at point " + std::to_string(i);
      return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (is_core[i]) continue;
    if ((cluster[i] == pdbscan::Clustering::kNoise) !=
        (ref.cluster[i] == pdbscan::Clustering::kNoise)) {
      *why = "noise flag of point " + std::to_string(i) + " differs";
      return false;
    }
    if (cluster[i] == pdbscan::Clustering::kNoise) continue;
    const auto it = to_ref.find(cluster[i]);
    const std::vector<int64_t> m = ClustersOf(ref, i);
    if (it == to_ref.end() ||
        std::find(m.begin(), m.end(), it->second) == m.end()) {
      *why = "border point " + std::to_string(i) + " in a foreign cluster";
      return false;
    }
  }
  return true;
}

// One flipped core flag (the first core point of the labelling).
inline pdbscan::Clustering FlipCoreFlag(pdbscan::Clustering c, size_t i) {
  c.is_core[i] = c.is_core[i] ? 0 : 1;
  return c;
}

// Clusters `from` and `into` merged into `into` (ids left as they are).
inline pdbscan::Clustering MergeClusters(pdbscan::Clustering c, int64_t from,
                                         int64_t into) {
  for (int64_t& id : c.cluster) {
    if (id == from) id = into;
  }
  for (size_t i = 0; i + 1 < c.membership_offsets.size(); ++i) {
    auto b = c.membership_ids.begin() +
             static_cast<std::ptrdiff_t>(c.membership_offsets[i]);
    auto e = c.membership_ids.begin() +
             static_cast<std::ptrdiff_t>(c.membership_offsets[i + 1]);
    for (auto it = b; it != e; ++it) {
      if (*it == from) *it = into;
    }
    std::sort(b, e);
  }
  for (size_t i = 0; i < c.cluster.size(); ++i) {
    const auto m = c.memberships(i);
    c.cluster[i] = m.empty() ? pdbscan::Clustering::kNoise : m[0];
  }
  return c;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
