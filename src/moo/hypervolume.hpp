// Exact Pareto hypervolume (PHV) for minimization problems.
//
// The PHV of a point set S with respect to a reference point r is the
// Lebesgue measure of the region dominated by S and bounded above by r:
//     HV(S, r) = vol( U_{s in S, s <= r} [s, r] ).
// It is the quality metric the paper optimizes for and reports (Table II),
// and MOO-STAGE's local search objective.
//
// Implementation: WFG (While, Bradstreet & Barone, "A fast way of
// calculating exact hypervolumes", IEEE TEVC 2012) over flat row-major
// buffers. The points are pruned to their non-dominated subset and sorted
// worst-first on the last objective; point i's exclusive volume is then
// its box minus the hypervolume of its "limit set" (the component-wise max
// of i with every later point). All members of that limit set share i's
// last coordinate, so the recursion slices it off: each level drops one
// dimension, and 2-D sets end in an O(n log n) sweep. Exact for any number
// of objectives; scratch is per thread, so concurrent calls are safe.
//
// hypervolume_contribution() answers "how much would this point add?" with
// one call on the candidate's limit set instead of two full hypervolumes:
// the limit set is usually tiny after pruning, which is what makes the
// per-candidate PHV of MOOS / MOO-STAGE (Sec. IV.B) affordable.
#pragma once

#include <vector>

#include "moo/objective.hpp"

namespace moela::moo {

/// Computes the exact hypervolume of `points` w.r.t. `ref` (minimization).
/// Points not strictly better than `ref` in every dimension contribute only
/// their clipped region; fully dominated-by-ref-or-worse points contribute 0.
/// An empty set has hypervolume 0.
double hypervolume(const std::vector<ObjectiveVector>& points,
                   const ObjectiveVector& ref);

/// Exclusive hypervolume of `candidate` with respect to `others`:
/// HV(others + {candidate}) - HV(others), computed as the candidate's box
/// [candidate, ref] minus the hypervolume of {max(p, candidate) : p in
/// others}. Exactly 0 when the candidate lies outside ref or some member of
/// `others` weakly dominates it (including an exact duplicate).
double hypervolume_contribution(const std::vector<ObjectiveVector>& others,
                                const ObjectiveVector& candidate,
                                const ObjectiveVector& ref);

/// Convenience for algorithm-internal use: normalizes `points` with the given
/// ideal/nadir into [0,1]^M and evaluates the hypervolume against the
/// conventional reference point (1.1, ..., 1.1). This makes PHV values
/// comparable across algorithms when the harness supplies a shared
/// ideal/nadir.
double normalized_hypervolume(const std::vector<ObjectiveVector>& points,
                              const ObjectiveVector& ideal,
                              const ObjectiveVector& nadir,
                              double ref_coordinate = 1.1);

}  // namespace moela::moo
