//! CombBLAS-style distributed betweenness centrality — the paper's
//! comparison baseline (§7), rebuilt in-repo per DESIGN.md §3.
//!
//! Faithful to the real CombBLAS BC benchmark's constraints:
//!
//! * **unweighted graphs only** (the CombBLAS BC code is BFS-based);
//! * **square 2D processor grids only** ("CombBLAS requires square
//!   processor grids", §7.1) — no 1D/3D variants, no replication, no
//!   layout autotuning;
//! * batched BFS forward sweep that **stores the frontier stack** of
//!   every level for the backward dependency sweep (the memory
//!   footprint that makes the real CombBLAS fail on Friendster);
//! * every SpGEMM runs the SUMMA stationary-C schedule (broadcast
//!   both operands), CombBLAS's algorithm.

use crate::scores::BcScores;
use mfbc_algebra::kernel::CountKernel;
use mfbc_algebra::monoid::SumF64;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{Coo, MaskKind};
use mfbc_tensor::cache::MmCache;
use mfbc_tensor::ops::{dmat_column_sums, dmat_combine, dmat_zip_filter, nnz_sync};
use mfbc_tensor::{canonical_layout, mm, DistMat, MmOpts, MmPlan, Variant1D, Variant2D};

/// Failure modes of the baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineError {
    /// The graph has non-unit weights (BFS-Brandes cannot run).
    WeightedUnsupported,
    /// `p` is not a perfect square.
    NonSquareGrid(usize),
    /// Simulated machine failure (out of memory).
    Machine(MachineError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::WeightedUnsupported => {
                write!(f, "CombBLAS-style baseline supports unweighted graphs only")
            }
            BaselineError::NonSquareGrid(p) => {
                write!(f, "CombBLAS-style baseline requires a square grid; p={p}")
            }
            BaselineError::Machine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<MachineError> for BaselineError {
    fn from(e: MachineError) -> BaselineError {
        BaselineError::Machine(e)
    }
}

/// Configuration of a baseline run.
#[derive(Clone, Debug, Default)]
pub struct CombBlasConfig {
    /// Sources per batch; `None` chooses `min(n, 512)`.
    pub batch_size: Option<usize>,
    /// Cap on processed batches.
    pub max_batches: Option<usize>,
}

/// Result and statistics of a baseline run.
#[derive(Clone, Debug)]
pub struct CombBlasRun {
    /// Accumulated centrality scores.
    pub scores: BcScores,
    /// Batches processed.
    pub batches: usize,
    /// Sources actually processed.
    pub sources_processed: usize,
    /// BFS levels summed over batches.
    pub levels: usize,
    /// Total kernel applications.
    pub ops: u64,
}

/// Runs the CombBLAS-style batched BFS-Brandes.
pub fn combblas_bc(
    machine: &Machine,
    g: &Graph,
    cfg: &CombBlasConfig,
) -> Result<CombBlasRun, BaselineError> {
    if !g.is_unit_weighted() {
        return Err(BaselineError::WeightedUnsupported);
    }
    let p = machine.p();
    let r = (p as f64).sqrt().round() as usize;
    if r * r != p {
        return Err(BaselineError::NonSquareGrid(p));
    }
    let plan = if p == 1 {
        MmPlan::OneD(Variant1D::A)
    } else {
        MmPlan::TwoD {
            variant: Variant2D::AB,
            p2: r,
            p3: r,
        }
    };

    let n = g.n();
    let nb = cfg.batch_size.unwrap_or_else(|| n.min(512)).max(1);
    let da = DistMat::from_global(canonical_layout(machine, n, n), g.adjacency());
    let dat = DistMat::from_global(canonical_layout(machine, n, n), &g.adjacency_t());
    da.charge_memory(machine)?;
    dat.charge_memory(machine)?;

    let mut run = CombBlasRun {
        scores: BcScores::zeros(n),
        batches: 0,
        sources_processed: 0,
        levels: 0,
        ops: 0,
    };
    let mut fwd_cache: MmCache<mfbc_algebra::Dist> = MmCache::new();
    let mut back_cache: MmCache<mfbc_algebra::Dist> = MmCache::new();

    let sources: Vec<usize> = (0..n).collect();
    let result = (|| -> Result<(), BaselineError> {
        for chunk in sources.chunks(nb) {
            if let Some(max) = cfg.max_batches {
                if run.batches >= max {
                    break;
                }
            }
            batch(
                machine,
                g,
                &da,
                &dat,
                chunk,
                &plan,
                &mut fwd_cache,
                &mut back_cache,
                &mut run,
            )?;
            run.batches += 1;
            run.sources_processed += chunk.len();
        }
        Ok(())
    })();

    fwd_cache.release_all(machine);
    back_cache.release_all(machine);
    da.release_memory(machine);
    dat.release_memory(machine);
    result.map(|()| run)
}

#[allow(clippy::too_many_arguments)]
fn batch(
    machine: &Machine,
    g: &Graph,
    da: &DistMat<mfbc_algebra::Dist>,
    dat: &DistMat<mfbc_algebra::Dist>,
    chunk: &[usize],
    plan: &MmPlan,
    fwd_cache: &mut MmCache<mfbc_algebra::Dist>,
    back_cache: &mut MmCache<mfbc_algebra::Dist>,
    run: &mut CombBlasRun,
) -> Result<(), BaselineError> {
    let n = g.n();
    let nbatch = chunk.len();
    let layout = canonical_layout(machine, nbatch, n);

    // Level 0: each source visits itself with σ = 1.
    let mut seed = Coo::new(nbatch, n);
    for (s, &src) in chunk.iter().enumerate() {
        seed.push(s, src, 1.0f64);
    }
    let f0 = DistMat::from_global(layout.clone(), &seed.into_csr::<SumF64>());

    // Forward BFS, storing the per-level frontier stack (σ values) —
    // the CombBLAS memory profile.
    let mut fronts: Vec<DistMat<f64>> = vec![f0.clone()];
    let mut sigma = f0;
    sigma.charge_memory(machine)?;
    fronts[0].charge_memory(machine)?;

    loop {
        let cur = fronts.last().expect("at least the seed level");
        if nnz_sync(machine, cur)? == 0 {
            if let Some(f) = fronts.pop() {
                f.release_memory(machine)
            }
            break;
        }
        // Unvisited vertices only: the complement of σ's pattern as
        // an output mask prunes already-discovered products inside
        // the multiply instead of filtering them out afterwards.
        let unvisited = crate::dist::pattern_mask_of(MaskKind::Complement, &sigma);
        let (explored, _) = mm::<CountKernel>(
            machine,
            cur,
            da,
            MmOpts {
                mask: Some(&unvisited),
                cache: Some(fwd_cache),
                ..MmOpts::fixed(plan)
            },
        )?;
        run.ops += explored.ops;
        let next = explored.c;
        let sigma_new = dmat_combine::<SumF64, _>(machine, &sigma, &next);
        sigma.release_memory(machine);
        sigma = sigma_new;
        sigma.charge_memory(machine)?;
        next.charge_memory(machine)?;
        fronts.push(next);
        run.levels += 1;
    }

    // Backward dependency sweep over the stored stack.
    let mut delta = DistMat::<f64>::zero(layout.clone());
    for l in (1..fronts.len()).rev() {
        // wₗ(s,v) = (1 + δ(s,v)) / σ(s,v) on level-l vertices.
        let wl =
            dmat_zip_filter::<SumF64, _, _, f64>(machine, &fronts[l], &delta, |_, _, s_v, d| {
                Some((1.0 + d.copied().unwrap_or(0.0)) / *s_v)
            });
        // Restrict to true predecessors (level l−1) via a structural
        // output mask on the multiply; the zip then only scales by σ.
        let preds = crate::dist::pattern_mask_of(MaskKind::Structural, &fronts[l - 1]);
        let (contrib, _) = mm::<CountKernel>(
            machine,
            &wl,
            dat,
            MmOpts {
                mask: Some(&preds),
                cache: Some(back_cache),
                ..MmOpts::fixed(plan)
            },
        )?;
        run.ops += contrib.ops;
        let upd = dmat_zip_filter::<SumF64, _, _, f64>(
            machine,
            &contrib.c,
            &fronts[l - 1],
            |_, _, x, pred| pred.map(|s_v| x * s_v),
        );
        delta = dmat_combine::<SumF64, _>(machine, &delta, &upd);
    }

    // λ(v) += Σ_s δ(s,v), excluding the sources themselves.
    let masked =
        dmat_zip_filter::<SumF64, _, _, f64>(machine, &delta, &fronts[0], |_, _, d, is_source| {
            if is_source.is_none() {
                Some(*d)
            } else {
                None
            }
        });
    let partial = dmat_column_sums(machine, &masked)?;
    for (v, x) in partial.into_iter().enumerate() {
        run.scores.lambda[v] += x;
    }

    for f in &fronts {
        f.release_memory(machine);
    }
    sigma.release_memory(machine);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brandes_unweighted;
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;

    #[test]
    fn matches_brandes_small() {
        let g = Graph::unweighted(
            7,
            false,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (1, 5),
            ],
        );
        let want = brandes_unweighted(&g);
        for p in [1usize, 4] {
            let machine = Machine::new(MachineSpec::test(p));
            let run = combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap();
            assert!(
                run.scores.approx_eq(&want, 1e-9),
                "p={p}: {:?} vs {:?}",
                run.scores.lambda,
                want.lambda
            );
        }
    }

    #[test]
    fn rejects_weighted_graphs() {
        let g = Graph::new(3, true, vec![(0, 1, Dist::new(2))]);
        let machine = Machine::new(MachineSpec::test(4));
        assert_eq!(
            combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap_err(),
            BaselineError::WeightedUnsupported
        );
    }

    #[test]
    fn rejects_nonsquare_grids() {
        let g = Graph::unweighted(3, false, vec![(0, 1)]);
        let machine = Machine::new(MachineSpec::test(8));
        assert_eq!(
            combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap_err(),
            BaselineError::NonSquareGrid(8)
        );
    }

    #[test]
    fn directed_graph_matches_brandes() {
        let g = Graph::unweighted(5, true, vec![(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)]);
        let want = brandes_unweighted(&g);
        let machine = Machine::new(MachineSpec::test(4));
        let run = combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap();
        assert!(run.scores.approx_eq(&want, 1e-9));
    }
}
