//! Criterion microbenchmark of the pool-parallel SpGEMM: serial
//! reference vs the flops-balanced `mfbc-parallel` path at 1, 2, 4,
//! and 8 workers, on the seeded 2048-vertex paper R-MAT and an
//! Erdős–Rényi graph of matching size.
//!
//! The parallel path is bit-identical to serial at every thread
//! count (asserted once per operand pair before timing), so this
//! bench measures pure scheduling + partitioning cost/benefit.
//! Speedups materialize in proportion to the cores the container
//! actually grants; on a single-core runner the 1-thread row shows
//! the no-pool fast path and the others show pool overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfbc_algebra::kernel::{BellmanFordKernel, KernelOut, TropicalKernel};
use mfbc_algebra::{Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::Graph;
use mfbc_sparse::{spgemm, spgemm_serial, Coo, Csr};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn frontier(nb: usize, n: usize, per_row: usize, seed: u64) -> Csr<Multpath> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = Coo::new(nb, n);
    for s in 0..nb {
        for _ in 0..per_row {
            coo.push(
                s,
                rng.gen_range(0..n),
                Multpath::new(Dist::new(rng.gen_range(1..20)), 1.0),
            );
        }
    }
    coo.into_csr::<MultpathMonoid>()
}

/// Asserts the pool product equals serial at every thread count, then
/// benches serial plus each pool size.
fn bench_pair<K>(c: &mut Criterion, group_name: &str, a: &Csr<K::Left>, b: &Csr<K::Right>)
where
    K: SpMulKernel,
    KernelOut<K>: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    let reference = spgemm_serial::<K>(a, b);
    for t in THREADS {
        let out = mfbc_parallel::with_threads(t, || spgemm::<K>(a, b, None));
        assert_eq!(reference.mat.first_difference(&out.mat), None);
        assert_eq!(reference.ops, out.ops);
    }

    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    group.bench_function("serial", |bch| {
        bch.iter(|| black_box(spgemm_serial::<K>(a, b)))
    });
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("pool", t), &t, |bch, &t| {
            bch.iter(|| mfbc_parallel::with_threads(t, || black_box(spgemm::<K>(a, b, None))))
        });
    }
    group.finish();
}

fn graphs() -> (Graph, Graph) {
    // Paper R-MAT at scale 11: 2048 vertices, edge factor 16.
    let g_rmat = rmat(&RmatConfig::paper(11, 16, 1));
    let g_er = uniform(2048, 2048 * 16, false, None, 7);
    (g_rmat, g_er)
}

fn bench_tropical(c: &mut Criterion) {
    let (g_rmat, g_er) = graphs();
    let a = g_rmat.adjacency();
    bench_pair::<TropicalKernel>(c, "spgemm_parallel/rmat_a_x_a", a, a);
    let e = g_er.adjacency();
    bench_pair::<TropicalKernel>(c, "spgemm_parallel/er_a_x_a", e, e);
}

fn bench_multpath(c: &mut Criterion) {
    let (g_rmat, g_er) = graphs();
    let f = frontier(64, g_rmat.n(), 128, 2);
    bench_pair::<BellmanFordKernel>(
        c,
        "spgemm_parallel/rmat_frontier_x_a",
        &f,
        g_rmat.adjacency(),
    );
    let fe = frontier(64, g_er.n(), 128, 3);
    bench_pair::<BellmanFordKernel>(c, "spgemm_parallel/er_frontier_x_a", &fe, g_er.adjacency());
}

criterion_group!(benches, bench_tropical, bench_multpath);
criterion_main!(benches);
