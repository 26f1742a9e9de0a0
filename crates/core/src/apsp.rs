//! All-pairs shortest paths by tropical path doubling — the
//! comparison target of the paper's §5.3.2/§5.3.3.
//!
//! The best-known APSP algorithms compute the full `n × n` distance
//! matrix via 3D matrix multiplication, costing `O(β·n²/√(cp))`
//! bandwidth but requiring `Ω(n²/p)` memory regardless of the graph's
//! sparsity; path doubling reaches `O(α log p)`-latency territory by
//! squaring the adjacency matrix `⌈log₂ n⌉` times over the tropical
//! semiring (`A ← A •⟨min,+⟩ A` until fixpoint). MFBC matches the
//! bandwidth with only `O(cm/p)` memory — the claim the
//! `apsp_vs_mfbc` benchmark reproduces by running both on the same
//! simulated machine and comparing charged bytes and peak memory.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{spgemm, Coo, Csr};
use mfbc_tensor::ops::dmat_combine;
use mfbc_tensor::{canonical_layout, DistMat};
use mfbc_tensor::{mm, MmOpts};

/// Adds the zero-distance diagonal to an adjacency matrix (paths of
/// length 0), the identity element of tropical matrix powering.
fn with_diagonal(a: &Csr<Dist>) -> Csr<Dist> {
    let n = a.nrows();
    let mut coo = Coo::from_csr(a);
    for v in 0..n {
        coo.push(v, v, Dist::ZERO);
    }
    coo.into_csr::<MinDist>()
}

/// Sequential path-doubling APSP: returns the full distance matrix
/// (entry absent ⇔ unreachable). `O(log d)` tropical squarings.
pub fn apsp_seq(g: &Graph) -> Csr<Dist> {
    let mut d = with_diagonal(g.adjacency());
    loop {
        let squared = spgemm::<TropicalKernel>(&d, &d, None).mat;
        if squared == d {
            return d;
        }
        d = squared;
    }
}

/// Result of a distributed APSP run.
#[derive(Clone, Debug)]
pub struct ApspRun {
    /// The distance matrix, canonically distributed.
    pub distances: DistMat<Dist>,
    /// Squaring rounds executed (`⌈log₂ d⌉ + 1`).
    pub rounds: usize,
}

/// Distributed path-doubling APSP with autotuned products. The
/// distance matrix densifies toward `n²` entries, so per-rank memory
/// grows to `Θ(n²/p)` — the cost MFBC avoids (§5.3.2). Out-of-memory
/// failures surface exactly like the paper's infeasible
/// configurations.
pub fn apsp_dist(machine: &Machine, g: &Graph) -> Result<ApspRun, MachineError> {
    let n = g.n();
    let layout = canonical_layout(machine, n, n);
    let mut d = DistMat::from_global(layout, &with_diagonal(g.adjacency()));
    d.charge_memory(machine)?;
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        let squared = mm::<TropicalKernel>(machine, &d, &d, MmOpts::default())?.0;
        // min-combine keeps the matrices aligned and makes the
        // fixpoint test a plain equality.
        let merged = dmat_combine::<MinDist, _>(machine, &d, &squared.c);
        let done = merged.to_global::<MinDist>() == d.to_global::<MinDist>();
        d.release_memory(machine);
        d = merged;
        d.charge_memory(machine)?;
        if done {
            return Ok(ApspRun {
                distances: d,
                rounds,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::sssp_seq;
    use mfbc_graph::gen::uniform;
    use mfbc_machine::MachineSpec;

    #[test]
    fn apsp_matches_per_source_sssp() {
        let g = uniform(30, 120, true, Some(9), 2);
        let d = apsp_seq(&g);
        let sources: Vec<usize> = (0..g.n()).collect();
        let rows = sssp_seq(&g, &sources);
        for s in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(d.get(s, v), rows.get(s, v), "({s},{v})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero() {
        let g = uniform(10, 30, false, None, 3);
        let d = apsp_seq(&g);
        for v in 0..g.n() {
            assert_eq!(d.get(v, v), Some(&Dist::ZERO));
        }
    }

    #[test]
    fn dist_apsp_matches_seq_and_uses_log_rounds() {
        let g = uniform(24, 70, false, None, 5);
        let want = apsp_seq(&g);
        let machine = Machine::new(MachineSpec::test(4));
        let run = apsp_dist(&machine, &g).unwrap();
        assert_eq!(run.distances.to_global::<MinDist>(), want);
        // Path doubling: rounds ≈ log₂(diameter) + fixpoint check,
        // far below n.
        assert!(run.rounds <= 8, "rounds = {}", run.rounds);
    }

    #[test]
    fn apsp_memory_is_quadratic() {
        // The distance matrix approaches n² entries on a connected
        // graph — the Ω(n²/p) footprint of §5.3.2.
        let g = uniform(64, 512, false, None, 7);
        let machine = Machine::new(MachineSpec::test(4));
        let run = apsp_dist(&machine, &g).unwrap();
        let n = g.n();
        assert!(
            run.distances.nnz() as f64 > 0.9 * (n * n) as f64,
            "nnz = {} of {}",
            run.distances.nnz(),
            n * n
        );
        let peak = machine.with_tracker(|t| t.max_peak());
        let quadratic_share = (n * n * 12 / 4) as u64; // Dist+idx per rank
        assert!(peak as f64 > 0.8 * quadratic_share as f64);
    }
}
