//! Criterion microbenchmarks of the sparse kernels: generalized
//! SpGEMM (tropical / multpath / centpath), elementwise combine,
//! transpose, and the COO↔CSR conversions that redistribution leans
//! on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel, TropicalKernel};
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{spgemm, spgemm_serial, Coo, Csr};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

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

fn bench_spgemm(c: &mut Criterion) {
    let g = rmat(&RmatConfig::paper(11, 16, 1));
    let a = g.adjacency().clone();
    let f = frontier(64, g.n(), 128, 2);

    let mut group = c.benchmark_group("spgemm");
    group.sample_size(20);
    group.bench_function("tropical_serial_a_x_a", |b| {
        b.iter(|| black_box(spgemm_serial::<TropicalKernel>(&a, &a)))
    });
    group.bench_function("multpath_frontier_x_a_serial", |b| {
        b.iter(|| black_box(spgemm_serial::<BellmanFordKernel>(&f, &a)))
    });
    group.bench_function("multpath_frontier_x_a_parallel", |b| {
        b.iter(|| black_box(spgemm::<BellmanFordKernel>(&f, &a, None)))
    });
    let at = transpose(&a);
    let z = f.map(|_, _, mp| Centpath::new(mp.w, 0.5, 1));
    group.bench_function("centpath_backprop_x_at", |b| {
        b.iter(|| black_box(spgemm_serial::<BrandesKernel>(&z, &at)))
    });
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let f1 = frontier(128, 4096, 256, 3);
    let f2 = frontier(128, 4096, 256, 4);
    let mut group = c.benchmark_group("elementwise");
    group.bench_function("multpath_combine", |b| {
        b.iter(|| black_box(combine::<MultpathMonoid, _>(&f1, &f2)))
    });
    let z1 = f1.map(|_, _, mp| Centpath::new(mp.w, 0.25, 2));
    let z2 = f2.map(|_, _, mp| Centpath::new(mp.w, 0.5, -1));
    group.bench_function("centpath_combine", |b| {
        b.iter(|| black_box(combine::<CentpathMonoid, _>(&z1, &z2)))
    });
    group.finish();
}

fn bench_structure(c: &mut Criterion) {
    let g = rmat(&RmatConfig::paper(12, 8, 5));
    let a = g.adjacency().clone();
    let mut group = c.benchmark_group("structure");
    group.sample_size(20);
    group.bench_function("transpose", |b| b.iter(|| black_box(transpose(&a))));
    group.bench_function("coo_to_csr", |b| {
        b.iter_batched(
            || Coo::from_csr(&a),
            |coo| black_box(coo.into_csr::<MinDist>()),
            criterion::BatchSize::LargeInput,
        )
    });
    for parts in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("row_slice", parts), &parts, |b, &parts| {
            b.iter(|| {
                for r in mfbc_sparse::slice::even_ranges(a.nrows(), parts) {
                    black_box(mfbc_sparse::slice::slice_rows(&a, r));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm, bench_elementwise, bench_structure);
criterion_main!(benches);
