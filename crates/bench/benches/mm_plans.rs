//! Criterion benchmarks of the distributed multiplication plans: one
//! frontier × adjacency product per plan family, measuring host
//! execution time of the simulation (the *modeled* machine times are
//! what the experiment binaries report; this bench tracks the
//! simulator's own efficiency and catches regressions in the MM
//! schedules).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfbc_algebra::kernel::BellmanFordKernel;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr};
use mfbc_tensor::{canonical_layout, mm, DistMat, MmOpts, MmPlan, Variant1D, Variant2D};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn workload(p: usize) -> (Machine, DistMat<Multpath>, DistMat<Dist>) {
    let g = rmat(&RmatConfig::paper(10, 16, 9));
    let n = g.n();
    let nb = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut coo = Coo::new(nb, n);
    for s in 0..nb {
        for _ in 0..96 {
            coo.push(s, rng.gen_range(0..n), Multpath::new(Dist::new(3), 1.0));
        }
    }
    let f: Csr<Multpath> = coo.into_csr::<MultpathMonoid>();
    let m = Machine::new(MachineSpec::gemini(p));
    let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
    let da = DistMat::from_global(canonical_layout(&m, n, n), g.adjacency());
    (m, df, da)
}

fn bench_plans(c: &mut Criterion) {
    let p = 16;
    let (m, df, da) = workload(p);
    let plans = [
        ("1d_a", MmPlan::OneD(Variant1D::A)),
        ("1d_b", MmPlan::OneD(Variant1D::B)),
        ("1d_c", MmPlan::OneD(Variant1D::C)),
        (
            "2d_ab",
            MmPlan::TwoD {
                variant: Variant2D::AB,
                p2: 4,
                p3: 4,
            },
        ),
        (
            "2d_ac",
            MmPlan::TwoD {
                variant: Variant2D::AC,
                p2: 4,
                p3: 4,
            },
        ),
        (
            "3d_b_ac",
            MmPlan::ThreeD {
                split: Variant1D::B,
                inner: Variant2D::AC,
                p1: 4,
                p2: 2,
                p3: 2,
            },
        ),
        (
            "3d_c_ab",
            MmPlan::ThreeD {
                split: Variant1D::C,
                inner: Variant2D::AB,
                p1: 4,
                p2: 2,
                p3: 2,
            },
        ),
    ];
    let mut group = c.benchmark_group("mm_plans_p16");
    group.sample_size(15);
    for (name, plan) in plans {
        group.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            b.iter(|| {
                m.reset_meters();
                black_box(mm::<BellmanFordKernel>(&m, &df, &da, MmOpts::fixed(plan)).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_autotune_overhead(c: &mut Criterion) {
    let (m, df, da) = workload(16);
    let mut group = c.benchmark_group("autotune");
    group.bench_function("plan_search_p16", |b| {
        let st = mfbc_tensor::autotune::stats_for::<BellmanFordKernel>(&df, &da);
        b.iter(|| black_box(mfbc_tensor::best_plan(m.spec(), &st)))
    });
    group.finish();
}

criterion_group!(benches, bench_plans, bench_autotune_overhead);
criterion_main!(benches);
