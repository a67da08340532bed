#include "moo/hypervolume.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "moo/pareto.hpp"

namespace moela::moo {

namespace {

/// Per-thread scratch, reused across calls (Executor workers compute
/// hypervolumes concurrently). `level[k]` holds the pruned k-dimensional
/// point set of the current recursion, row-major; one buffer per dimension
/// suffices because a level is done with its child's set before it builds
/// the next one.
struct Workspace {
  std::vector<std::vector<double>> level;
  std::vector<double> raw;                   // a set before its prune
  std::vector<std::size_t> order;            // sort permutation of `raw`
  std::vector<std::array<double, 2>> pairs;  // a 2-D set, sorted in place
};

Workspace& workspace(std::size_t m) {
  thread_local Workspace ws;
  if (ws.level.size() <= m) ws.level.resize(m + 1);
  return ws;
}

/// Volume of the box [p, ref] over the first k coordinates.
double box(const double* p, std::size_t k, const double* ref) {
  double v = 1.0;
  for (std::size_t i = 0; i < k; ++i) v *= ref[i] - p[i];
  return v;
}

bool inside(const double* p, std::size_t k, const double* ref) {
  for (std::size_t i = 0; i < k; ++i) {
    if (!(p[i] < ref[i])) return false;
  }
  return true;
}

/// Sorts the n d-dimensional rows of `ws.raw` worst-first (descending
/// lexicographically from the last coordinate down), drops every row that
/// another row weakly dominates (one copy of a duplicate survives) and
/// writes the survivors, still worst-first, to `ws.level[d]`. A dominator
/// sorts after the row it dominates, so scanning from the back only has to
/// test rows against the survivors found so far. Returns the survivor count.
std::size_t sort_prune(Workspace& ws, std::size_t n, std::size_t d) {
  const double* raw = ws.raw.data();
  auto& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [raw, d](std::size_t a, std::size_t b) {
    const double* pa = raw + a * d;
    const double* pb = raw + b * d;
    for (std::size_t k = d; k-- > 0;) {
      if (pa[k] != pb[k]) return pa[k] > pb[k];
    }
    return false;
  });
  // Survivors collect in order[kept..n), best-first from the back.
  std::size_t kept = n;
  for (std::size_t pos = n; pos-- > 0;) {
    const double* q = raw + order[pos] * d;
    bool dominated = false;
    for (std::size_t s = kept; s < n && !dominated; ++s) {
      const double* r = raw + order[s] * d;
      std::size_t k = 0;
      while (k < d && r[k] <= q[k]) ++k;
      dominated = k == d;
    }
    if (!dominated) order[--kept] = order[pos];
  }
  const std::size_t count = n - kept;
  auto& out = ws.level[d];
  out.resize(count * d);
  for (std::size_t s = 0; s < count; ++s) {
    std::copy_n(raw + order[kept + s] * d, d, out.data() + s * d);
  }
  return count;
}

/// Hypervolume of the n m-dimensional rows in `ws.raw`, all strictly
/// inside ref, possibly dominated or duplicated. Two dimensions end in an
/// O(n log n) sweep over the points sorted by first coordinate; more go
/// through sort_prune and WFG.
double raw_hypervolume(std::size_t n, std::size_t m, const double* ref,
                       Workspace& ws) {
  if (n == 0) return 0.0;
  if (m == 1) {
    return ref[0] - *std::min_element(ws.raw.begin(), ws.raw.begin() + n);
  }
  if (m == 2) {
    auto& ps = ws.pairs;
    ps.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      ps[j] = {ws.raw[2 * j], ws.raw[2 * j + 1]};
    }
    std::sort(ps.begin(), ps.end());
    double volume = 0.0;
    double prev_y = ref[1];
    for (const auto& p : ps) {
      if (p[1] < prev_y) {
        volume += (ref[0] - p[0]) * (prev_y - p[1]);
        prev_y = p[1];
      }
    }
    return volume;
  }
  const std::size_t count = sort_prune(ws, n, m);
  const double* pts = ws.level[m].data();
  if (count == 1) return box(pts, m, ref);
  // WFG: the volume is the sum over rows of each row's exclusive volume
  // against the rows after it. The rows are sorted worst-first on the last
  // coordinate, so every member of row i's limit set (its component-wise
  // max with each later row) shares row i's last coordinate, and the
  // exclusive volume is a slab of height ref[last] - p[last] over a
  // (m-1)-dimensional exclusive area.
  const std::size_t last = m - 1;
  double volume = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double* p = pts + i * m;
    const std::size_t rest = count - i - 1;
    ws.raw.resize(rest * last);
    double* out = ws.raw.data();
    for (const double* q = p + m; q != pts + count * m; q += m) {
      for (std::size_t k = 0; k < last; ++k) *out++ = std::max(q[k], p[k]);
    }
    volume += (ref[last] - p[last]) *
              (box(p, last, ref) - raw_hypervolume(rest, last, ref, ws));
  }
  return volume;
}

/// Copies the members of `points` that lie strictly inside ref into
/// `ws.raw`, each raised to max(p, floor) when `floor` is given, and
/// returns how many there are.
std::size_t load(Workspace& ws, const std::vector<ObjectiveVector>& points,
                 const ObjectiveVector& ref, const double* floor) {
  const std::size_t m = ref.size();
  ws.raw.resize(points.size() * m);
  std::size_t n = 0;
  for (const auto& p : points) {
    if (p.size() != m) {
      throw std::invalid_argument("hypervolume: dimension mismatch");
    }
    if (!inside(p.data(), m, ref.data())) continue;
    double* q = ws.raw.data() + n++ * m;
    for (std::size_t k = 0; k < m; ++k) {
      q[k] = floor == nullptr ? p[k] : std::max(p[k], floor[k]);
    }
  }
  return n;
}

}  // namespace

double hypervolume(const std::vector<ObjectiveVector>& points,
                   const ObjectiveVector& ref) {
  Workspace& ws = workspace(ref.size());
  const std::size_t n = load(ws, points, ref, nullptr);
  return raw_hypervolume(n, ref.size(), ref.data(), ws);
}

double hypervolume_contribution(const std::vector<ObjectiveVector>& others,
                                const ObjectiveVector& candidate,
                                const ObjectiveVector& ref) {
  if (candidate.size() != ref.size()) {
    throw std::invalid_argument("hypervolume: dimension mismatch");
  }
  if (!inside(candidate.data(), ref.size(), ref.data())) return 0.0;
  Workspace& ws = workspace(ref.size());
  const std::size_t n = load(ws, others, ref, candidate.data());
  return box(candidate.data(), ref.size(), ref.data()) -
         raw_hypervolume(n, ref.size(), ref.data(), ws);
}

double normalized_hypervolume(const std::vector<ObjectiveVector>& points,
                              const ObjectiveVector& ideal,
                              const ObjectiveVector& nadir,
                              double ref_coordinate) {
  if (points.empty()) return 0.0;
  const auto norm = normalize(points, ideal, nadir);
  const ObjectiveVector ref(ideal.size(), ref_coordinate);
  return hypervolume(norm, ref);
}

}  // namespace moela::moo
