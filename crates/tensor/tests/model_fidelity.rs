//! Cost-model fidelity: the analytic predictions the autotuner ranks
//! plans with must track what the simulated machine actually charges
//! — otherwise the "automatic search" of §6.2 would pick bad
//! configurations. We require (a) per-plan agreement within a
//! constant factor, and (b) rank correlation between predicted and
//! charged orderings.

use mfbc_algebra::kernel::BellmanFordKernel;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr};
use mfbc_tensor::autotune::{candidate_plans, stats_for};
use mfbc_tensor::costmodel::predict;
use mfbc_tensor::{canonical_layout, mm, DistMat, MmOpts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn workload(n: usize, nb: usize, deg: usize) -> (Csr<Multpath>, Csr<Dist>) {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut f = Coo::new(nb, n);
    for s in 0..nb {
        for _ in 0..n / 8 {
            f.push(s, rng.gen_range(0..n), Multpath::new(Dist::new(2), 1.0));
        }
    }
    let mut a = Coo::new(n, n);
    for _ in 0..n * deg {
        a.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            Dist::new(rng.gen_range(1..30)),
        );
    }
    (
        f.into_csr::<MultpathMonoid>(),
        a.into_csr::<mfbc_algebra::monoid::MinDist>(),
    )
}

#[test]
fn predictions_track_charges_within_constant_factor() {
    let p = 16;
    let (f, a) = workload(1024, 64, 16);
    let spec = MachineSpec::gemini(p);

    let mut pairs: Vec<(f64, f64, String)> = Vec::new();
    for plan in candidate_plans(p) {
        let m = Machine::new(spec.clone());
        let df = DistMat::from_global(canonical_layout(&m, f.nrows(), f.ncols()), &f);
        let da = DistMat::from_global(canonical_layout(&m, a.nrows(), a.ncols()), &a);
        let st = stats_for::<BellmanFordKernel>(&df, &da);
        let predicted = predict(&spec, &plan, &st);
        let _ = mm::<BellmanFordKernel>(&m, &df, &da, MmOpts::fixed(&plan)).unwrap();
        let charged = m.report().critical.total_time();
        pairs.push((predicted, charged, format!("{plan:?}")));
    }

    // (a) No plan may be mispredicted by more than ~6x in either
    // direction (nnz(C)/ops estimates are uniform-model approximations
    // and this workload is skewed, so exactness is not expected).
    for (pred, charged, plan) in &pairs {
        let ratio = pred / charged;
        assert!(
            (0.15..8.0).contains(&ratio),
            "{plan}: predicted {pred:.5}s vs charged {charged:.5}s (ratio {ratio:.2})"
        );
    }

    // (b) Spearman rank correlation between predicted and charged
    // orderings must be strongly positive.
    let n = pairs.len() as f64;
    let rank = |xs: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).unwrap());
        let mut r = vec![0.0; xs.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let rp = rank(pairs.iter().map(|t| t.0).collect());
    let rc = rank(pairs.iter().map(|t| t.1).collect());
    let d2: f64 = rp.iter().zip(&rc).map(|(a, b)| (a - b) * (a - b)).sum();
    let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    assert!(rho > 0.6, "rank correlation too weak: ρ = {rho:.3}");

    // (c) The tuner's chosen plan must land in the cheap half of the
    // actually-charged distribution.
    let best_pred = pairs
        .iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    let mut charged_sorted: Vec<f64> = pairs.iter().map(|t| t.1).collect();
    charged_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = charged_sorted[charged_sorted.len() / 2];
    assert!(
        best_pred.1 <= median,
        "tuner pick {} charged {:.5}s, above the median {:.5}s",
        best_pred.2,
        best_pred.1,
        median
    );
}
