//! Differential pin: the pool-parallel `spgemm` must agree with
//! `spgemm_serial` bit-for-bit (structure, values, and op counts) —
//! on seeded random operands biased into the parallel row-chunking
//! regime, at every thread count in {1, 2, 4, 8}, and on the
//! adversarial shapes where chunked index arithmetic goes wrong
//! first: empty rows/columns, duplicate-coordinate COO ingest, fully
//! dense blocks, and 0×n / n×0 shapes.

use mfbc_algebra::kernel::{BellmanFordKernel, KernelOut, TropicalKernel};
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_conformance::case::CaseSpec;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_sparse::{spgemm, spgemm_serial, Coo, Csr};

/// Asserts the parallel and serial products are identical.
fn assert_par_matches_serial<K>(a: &Csr<K::Left>, b: &Csr<K::Right>) -> Result<(), String>
where
    K: SpMulKernel,
    KernelOut<K>: Clone + PartialEq + std::fmt::Debug,
{
    let serial = spgemm_serial::<K>(a, b);
    let par = spgemm::<K>(a, b, None);
    if let Some(diff) = serial.mat.first_difference(&par.mat) {
        return Err(format!(
            "parallel spgemm diverges from serial ({}x{} · {}x{}): {diff}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        ));
    }
    if serial.ops != par.ops {
        return Err(format!(
            "parallel ops {} != serial ops {}",
            par.ops, serial.ops
        ));
    }
    Ok(())
}

/// Thread counts every differential case is exercised at: the serial
/// degenerate pool, the smallest real pool, and two oversubscribed
/// sizes (the container may have fewer cores; determinism must hold
/// regardless).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A seeded case pitting `spgemm` against `spgemm_serial` on tropical
/// operands whose row counts are biased above the parallel-path
/// threshold (the serial fallback below it is also exercised), run
/// under a pool of `threads` workers.
#[derive(Clone, Debug)]
struct DiffCase {
    // Read only through the derived Debug impl, which is what puts the
    // seed into the shrunk-case printout.
    #[allow(dead_code)]
    seed: u64,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: Vec<(usize, usize, u64)>,
    b: Vec<(usize, usize, u64)>,
}

impl DiffCase {
    fn generate(seed: u64) -> DiffCase {
        let mut rng = SplitMix64::new(seed);
        let threads = THREAD_COUNTS[rng.below(THREAD_COUNTS.len())];
        // Mostly ≥ 32 rows (the pool row-chunking regime, including
        // ragged final chunks at 33, 47, …), sometimes small.
        let m = if rng.chance(3, 4) {
            rng.range(32, 70)
        } else {
            rng.range(1, 8)
        };
        let k = rng.range(1, 40);
        let n = rng.range(1, 40);
        let dense = rng.chance(1, 8);
        let nnz_a = if dense { m * k } else { rng.below(3 * (m + k)) };
        let nnz_b = if dense { k * n } else { rng.below(3 * (k + n)) };
        let a = gen::coords(&mut rng, m, k, nnz_a)
            .into_iter()
            .map(|(i, j)| (i, j, rng.next_u64() % 30))
            .collect();
        let b = gen::coords(&mut rng, k, n, nnz_b)
            .into_iter()
            .map(|(i, j)| (i, j, rng.next_u64() % 30))
            .collect();
        DiffCase {
            seed,
            threads,
            m,
            k,
            n,
            a,
            b,
        }
    }

    fn csr(dim: (usize, usize), entries: &[(usize, usize, u64)]) -> Csr<Dist> {
        let mut coo = Coo::new(dim.0, dim.1);
        for &(i, j, w) in entries {
            coo.push(i, j, Dist::new(w));
        }
        coo.into_csr::<MinDist>()
    }
}

impl CaseSpec for DiffCase {
    fn check(&self) -> Result<(), String> {
        let a = Self::csr((self.m, self.k), &self.a);
        let b = Self::csr((self.k, self.n), &self.b);
        mfbc_parallel::with_threads(self.threads, || {
            assert_par_matches_serial::<TropicalKernel>(&a, &b)
        })
    }

    fn size(&self) -> usize {
        self.a.len() + self.b.len() + self.m + self.k + self.n + self.threads
    }

    fn shrink_candidates(&self) -> Vec<DiffCase> {
        let mut out = Vec::new();
        // Fewer threads first: a failure that survives at 2 workers is
        // easier to debug than the same failure at 8.
        for &t in THREAD_COUNTS.iter().filter(|&&t| t < self.threads) {
            let mut c = self.clone();
            c.threads = t;
            out.push(c);
        }
        for (field, len) in [(0, self.a.len()), (1, self.b.len())] {
            if len > 1 {
                for half in 0..2 {
                    let mut c = self.clone();
                    let src = if field == 0 { &self.a } else { &self.b };
                    let kept: Vec<_> = src
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| (i < len / 2) == (half == 0))
                        .map(|(_, &e)| e)
                        .collect();
                    if field == 0 {
                        c.a = kept;
                    } else {
                        c.b = kept;
                    }
                    out.push(c);
                }
            }
        }
        if self.m > 1 {
            let m = self.m / 2;
            let mut c = self.clone();
            c.m = m;
            c.a.retain(|&(i, _, _)| i < m);
            out.push(c);
        }
        if self.k > 1 {
            let k = self.k / 2;
            let mut c = self.clone();
            c.k = k;
            c.a.retain(|&(_, j, _)| j < k);
            c.b.retain(|&(i, _, _)| i < k);
            out.push(c);
        }
        if self.n > 1 {
            let n = self.n / 2;
            let mut c = self.clone();
            c.n = n;
            c.b.retain(|&(_, j, _)| j < n);
            out.push(c);
        }
        out
    }
}

#[test]
fn spgemm_parallel_vs_serial_seeded() {
    run_suite_or_panic("spgemm_parallel_vs_serial_seeded", 300, DiffCase::generate);
}

/// Runs `f` once under each pool size in [`THREAD_COUNTS`].
fn for_each_thread_count(f: impl Fn()) {
    for &t in &THREAD_COUNTS {
        mfbc_parallel::with_threads(t, &f);
    }
}

#[test]
fn spgemm_bit_identical_across_thread_counts() {
    // The same product computed under every pool size must agree with
    // the 1-thread result bit-for-bit: entries, structure, AND op
    // counts. This is the cross-thread determinism pin, independent of
    // the serial reference implementation.
    for seed in [1u64, 0xC0FFEE, 0x5EED] {
        let case = DiffCase::generate(seed);
        let a = DiffCase::csr((case.m, case.k), &case.a);
        let b = DiffCase::csr((case.k, case.n), &case.b);
        let reference = mfbc_parallel::with_threads(1, || spgemm::<TropicalKernel>(&a, &b, None));
        for &t in &THREAD_COUNTS[1..] {
            let out = mfbc_parallel::with_threads(t, || spgemm::<TropicalKernel>(&a, &b, None));
            assert_eq!(
                reference.mat.first_difference(&out.mat),
                None,
                "seed {seed:#x}: {t}-thread product diverges from 1-thread"
            );
            assert_eq!(
                reference.ops, out.ops,
                "seed {seed:#x}: {t}-thread op count diverges from 1-thread"
            );
        }
    }
}

#[test]
fn zero_by_n_and_n_by_zero_shapes() {
    // Degenerate shapes: every combination of a zero dimension.
    for (m, k, n) in [(0, 5, 4), (5, 0, 4), (5, 4, 0), (0, 0, 0), (40, 0, 40)] {
        let a = Csr::<Dist>::zero(m, k);
        let b = Csr::<Dist>::zero(k, n);
        assert_par_matches_serial::<TropicalKernel>(&a, &b).unwrap();
        let out = spgemm::<TropicalKernel>(&a, &b, None);
        assert_eq!((out.mat.nrows(), out.mat.ncols()), (m, n));
        assert_eq!(out.mat.nnz(), 0);
        assert_eq!(out.ops, 0);
        out.mat.validate().unwrap();
    }
}

#[test]
fn empty_rows_and_columns() {
    // 40 rows (parallel path), but all entries confined to one row of
    // A and one column of B: 39 empty rows and chunks with no work.
    let mut ca = Coo::new(40, 40);
    for j in 0..40 {
        ca.push(17, j, Dist::new(j as u64));
    }
    let mut cb = Coo::new(40, 40);
    for i in 0..40 {
        cb.push(i, 23, Dist::new(i as u64));
    }
    let a = ca.into_csr::<MinDist>();
    let b = cb.into_csr::<MinDist>();
    for_each_thread_count(|| {
        assert_par_matches_serial::<TropicalKernel>(&a, &b).unwrap();
        let out = spgemm::<TropicalKernel>(&a, &b, None);
        // Exactly one output entry: (17, 23) = min_j (j + j).
        assert_eq!(out.mat.nnz(), 1);
        assert_eq!(out.mat.get(17, 23), Some(&Dist::new(0)));
    });
}

#[test]
fn duplicate_coordinate_coo_ingest() {
    // The same coordinate pushed repeatedly must merge through the
    // monoid before multiplication, identically for both paths.
    let mut ca = Coo::new(33, 3);
    for rep in 0..7u64 {
        for i in 0..33 {
            ca.push(i, i % 3, Dist::new(10 + rep));
        }
    }
    let mut cb = Coo::new(3, 5);
    for rep in 0..5u64 {
        cb.push(0, 0, Dist::new(rep + 1));
        cb.push(2, 4, Dist::new(9 - rep));
    }
    let a = ca.into_csr::<MinDist>();
    let b = cb.into_csr::<MinDist>();
    // Merging kept the minimum per coordinate.
    assert_eq!(a.nnz(), 33);
    assert_eq!(a.get(0, 0), Some(&Dist::new(10)));
    assert_eq!(b.get(2, 4), Some(&Dist::new(5)));
    for_each_thread_count(|| assert_par_matches_serial::<TropicalKernel>(&a, &b).unwrap());
}

#[test]
fn fully_dense_blocks() {
    // 40×40 dense times 40×40 dense: every chunk saturated, maximal
    // accumulator reuse, 64 000 elementary products.
    let mut rng = SplitMix64::new(0xD05E);
    let mut ca = Coo::new(40, 40);
    let mut cb = Coo::new(40, 40);
    for i in 0..40 {
        for j in 0..40 {
            ca.push(i, j, Dist::new(rng.next_u64() % 100));
            cb.push(i, j, Dist::new(rng.next_u64() % 100));
        }
    }
    let a = ca.into_csr::<MinDist>();
    let b = cb.into_csr::<MinDist>();
    for_each_thread_count(|| {
        assert_par_matches_serial::<TropicalKernel>(&a, &b).unwrap();
        let out = spgemm::<TropicalKernel>(&a, &b, None);
        assert_eq!(out.mat.nnz(), 1600);
        assert_eq!(out.ops, 40 * 40 * 40);
    });
}

#[test]
fn multpath_kernel_parallel_vs_serial() {
    // The f64-multiplicity kernel through the parallel path: exact
    // agreement requires the chunked accumulation to visit entries in
    // the serial order within each row.
    let mut rng = SplitMix64::new(0xBF01);
    let mut cf = Coo::new(36, 30);
    for _ in 0..150 {
        cf.push(
            rng.below(36),
            rng.below(30),
            Multpath::new(Dist::new(rng.next_u64() % 20), 1.0 + rng.below(3) as f64),
        );
    }
    let mut ca = Coo::new(30, 28);
    for _ in 0..160 {
        ca.push(rng.below(30), rng.below(28), Dist::new(rng.next_u64() % 15));
    }
    let f = cf.into_csr::<MultpathMonoid>();
    let a = ca.into_csr::<MinDist>();
    for_each_thread_count(|| assert_par_matches_serial::<BellmanFordKernel>(&f, &a).unwrap());
}
