//! MFBr — Maximal Frontier Brandes (Algorithm 2), sequential.
//!
//! Given the multpath table `T` from MFBF, back-propagates partial
//! centrality *factors* `ζ(s,v) = δ(s,v)/σ̄(s,v)` from the leaves of
//! each shortest-path tree toward the root. Each table entry keeps a
//! counter of shortest-path children that have not yet reported;
//! a vertex joins the backward frontier exactly when its counter
//! hits zero, then is pinned to −1 so it fires once (the paper's
//! optimal-progress property).
//!
//! Back-propagated contributions are merged with the *anchored* `⊗`:
//! an update only lands on positions already present in `Z` (pairs
//! with a finite shortest path). Contributions to other positions —
//! possible when an edge leads to a vertex unreachable from the
//! batch's sources — are inert by the paper's `(∞,0,0)` semantics and
//! are dropped rather than stored.

use crate::seq::{mfbr_anchor, mfbr_fire};
use mfbc_algebra::kernel::BrandesKernel;
use mfbc_algebra::{Centpath, CentpathMonoid, Multpath};
use mfbc_graph::Graph;
use mfbc_sparse::elementwise::combine_anchored;
use mfbc_sparse::{spgemm, Csr};

/// Result of a sequential MFBr run.
#[derive(Clone, Debug)]
pub struct MfbrOut {
    /// `Z(s,v).p = ζ(s,v)` on the sparsity pattern of `T`.
    pub z: Csr<Centpath>,
    /// Backward-sweep iterations.
    pub iterations: usize,
    /// `Σᵢ nnz(Fᵢ)` over backward frontiers.
    pub frontier_nnz: u64,
    /// Total elementary back-propagations (`ops`).
    pub ops: u64,
}

/// Runs Algorithm 2: `Z = MFBr(A, T)`.
pub fn mfbr_seq(g: &Graph, t: &Csr<Multpath>) -> MfbrOut {
    let at = g.adjacency_t();
    let mut ops = 0u64;

    // Lines 1–2: count each vertex's shortest-path children by one
    // generalized product of per-entry (τ, 0, 1) seeds with Aᵀ.
    let seeds = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1));
    let counted = spgemm::<BrandesKernel>(&seeds, &at, None);
    ops += counted.ops;
    let mut z = t.map(|s, v, mp| mfbr_anchor(mp, counted.mat.get(s, v)));

    // Lines 3–4: leaves (counter 0) form the first frontier.
    let mut frontier = fire_and_pin(&mut z, t);
    let mut iterations = 0usize;
    let mut frontier_nnz = frontier.nnz() as u64;

    // Lines 5–12.
    while !frontier.is_empty() {
        iterations += 1;
        // Line 6: back-propagate the frontier of centralities.
        let back = spgemm::<BrandesKernel>(&frontier, &at, None);
        ops += back.ops;
        // Line 8: accumulate centralities and decrement counters
        // (frontier entries carry c = −1 each).
        z = combine_anchored::<CentpathMonoid, _>(&z, &back.mat);
        // Lines 9–11: vertices whose counter reached zero fire.
        frontier = fire_and_pin(&mut z, t);
        frontier_nnz += frontier.nnz() as u64;
    }

    MfbrOut {
        z,
        iterations,
        frontier_nnz,
        ops,
    }
}

/// Extracts the next frontier (entries with counter 0, carrying
/// `ζ + 1/σ̄`) and pins those entries to −1 in `Z`.
fn fire_and_pin(z: &mut Csr<Centpath>, t: &Csr<Multpath>) -> Csr<Centpath> {
    let frontier = z.filter(|s, v, zv| {
        let _ = (s, v);
        zv.c == 0
    });
    if frontier.is_empty() {
        return frontier;
    }
    let fired = frontier.map(|s, v, zv| {
        let sigma = t.get(s, v).expect("Z pattern is a subset of T's").m;
        mfbr_fire(zv, sigma).expect("filtered to c == 0")
    });
    *z = z.map(|_, _, zv| {
        if zv.c == 0 {
            Centpath::new(zv.w, zv.p, -1)
        } else {
            *zv
        }
    });
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::mfbf::mfbf_seq;
    use mfbc_algebra::Dist;
    use mfbc_graph::Graph;

    fn zeta(g: &Graph, src: usize) -> (Csr<Multpath>, Csr<Centpath>) {
        let t = mfbf_seq(g, &[src]).t;
        let z = mfbr_seq(g, &t).z;
        (t, z)
    }

    #[test]
    fn path_graph_factors() {
        // 0-1-2-3 from source 0: ζ(0,v) = δ(0,v)/σ̄ with σ̄ = 1:
        // δ(0,1)=2 (vertices 2,3 beyond... δ counts Σ_t σ(0,t,1)/σ̄ =
        // paths to 2 and 3) → ζ(0,1)=2; ζ(0,2)=1; ζ(0,3)=0.
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let (_, z) = zeta(&g, 0);
        assert_eq!(z.get(0, 1).unwrap().p, 2.0);
        assert_eq!(z.get(0, 2).unwrap().p, 1.0);
        assert_eq!(z.get(0, 3).unwrap().p, 0.0);
    }

    #[test]
    fn diamond_factors() {
        // 0→{1,2}→3: σ̄(0,3)=2; δ(0,1)=δ(0,2)=1/2; ζ = δ/σ̄ = 1/2.
        let g = Graph::unweighted(4, true, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (t, z) = zeta(&g, 0);
        assert_eq!(t.get(0, 3).unwrap().m, 2.0);
        assert_eq!(z.get(0, 1).unwrap().p, 0.5);
        assert_eq!(z.get(0, 2).unwrap().p, 0.5);
        assert_eq!(z.get(0, 3).unwrap().p, 0.0);
    }

    #[test]
    fn counters_are_pinned_after_firing() {
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let (_, z) = zeta(&g, 0);
        for (_, _, c) in z.iter() {
            assert_eq!(c.c, -1, "every reachable vertex fires exactly once");
        }
    }

    #[test]
    fn weighted_unequal_hops() {
        // Two equal-weight 0→3 routes with different hop counts: the
        // counter mechanism must wait for the longer route's leaf.
        let g = Graph::new(
            4,
            true,
            vec![
                (0, 3, Dist::new(4)),
                (0, 1, Dist::new(1)),
                (1, 2, Dist::new(1)),
                (2, 3, Dist::new(2)),
            ],
        );
        let (t, z) = zeta(&g, 0);
        assert_eq!(t.get(0, 3).unwrap().m, 2.0);
        // δ(0,1) = 1 (for t=2) + 1/2 (half of the two (0,3) paths);
        // ζ(0,1) = δ/σ̄(0,1) = 1.5. δ(0,2) = 1/2 likewise.
        assert_eq!(z.get(0, 1).unwrap().p, 1.5);
        assert_eq!(z.get(0, 2).unwrap().p, 0.5);
    }

    #[test]
    fn edge_into_unreachable_region_is_inert() {
        // 2→1 exists but 2 is unreachable from 0; back-propagation
        // along (1,2) must not materialize state for (0,2).
        let g = Graph::unweighted(3, true, vec![(0, 1), (2, 1)]);
        let (_, z) = zeta(&g, 0);
        assert_eq!(z.get(0, 2), None);
        assert_eq!(z.get(0, 1).unwrap().p, 0.0);
        // The source's own factor accumulates its child's report but
        // is excluded from λ by Algorithm 3.
        assert!(z.get(0, 0).is_some());
    }

    #[test]
    fn iteration_count_matches_tree_depth() {
        let g = Graph::unweighted(5, false, (0..4).map(|i| (i, i + 1)));
        let t = mfbf_seq(&g, &[0]).t;
        let out = mfbr_seq(&g, &t);
        // Path of 4 edges: leaves fire, then 3 more propagation
        // rounds reach the root's child.
        assert!(out.iterations <= 5, "iterations = {}", out.iterations);
        assert!(
            out.frontier_nnz <= 5,
            "each vertex (incl. the source) fires once"
        );
    }
}
