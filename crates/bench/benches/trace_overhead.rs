//! Sanity benchmark for the tracing fast path: `mm_auto` with tracing
//! disabled must run within a few percent of an uninstrumented build,
//! and installing a no-op recorder must not blow the budget either.
//!
//! The disabled path is a single relaxed atomic load per event site,
//! so the expected delta is noise-level; the `main` below also
//! cross-checks the <2% claim directly with averaged timings (the
//! tolerance is looser in CI to ride out scheduler jitter).

use criterion::{criterion_group, Criterion};
use mfbc_algebra::kernel::BellmanFordKernel;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr};
use mfbc_tensor::{canonical_layout, mm, DistMat, MmOpts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

fn workload(p: usize) -> (Machine, DistMat<Multpath>, DistMat<Dist>) {
    let g = rmat(&RmatConfig::paper(9, 16, 9));
    let n = g.n();
    let nb = 32;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut coo = Coo::new(nb, n);
    for s in 0..nb {
        for _ in 0..64 {
            coo.push(s, rng.gen_range(0..n), Multpath::new(Dist::new(2), 1.0));
        }
    }
    let f: Csr<Multpath> = coo.into_csr::<MultpathMonoid>();
    let m = Machine::new(MachineSpec::gemini(p));
    let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
    let da = DistMat::from_global(canonical_layout(&m, n, n), g.adjacency());
    (m, df, da)
}

fn run_once(m: &Machine, df: &DistMat<Multpath>, da: &DistMat<Dist>) {
    m.reset_meters();
    black_box(mm::<BellmanFordKernel>(m, df, da, MmOpts::default()).unwrap());
}

fn bench_trace_overhead(c: &mut Criterion) {
    let (m, df, da) = workload(16);
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(20);
    group.bench_function("mm_auto_tracing_disabled", |b| {
        mfbc_trace::uninstall_all();
        b.iter(|| run_once(&m, &df, &da))
    });
    group.bench_function("mm_auto_noop_recorder", |b| {
        mfbc_trace::uninstall_all();
        mfbc_trace::install(Arc::new(mfbc_trace::NoopRecorder::new()));
        b.iter(|| run_once(&m, &df, &da));
        mfbc_trace::uninstall_all();
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);

fn main() {
    benches();
    overhead_check();
}

/// Direct comparison backing the "<2% overhead" acceptance claim:
/// interleaved averaged timings of the disabled path vs. a no-op
/// recorder. Asserts a loose 10% CI bound (host timing jitter easily
/// exceeds 2% on shared runners); prints the measured ratio so the
/// tight bound can be eyeballed on quiet machines.
fn overhead_check() {
    let (m, df, da) = workload(16);
    run_once(&m, &df, &da); // warm up caches and the autotune table

    const ROUNDS: usize = 5;
    const ITERS: u64 = 8;
    let mut disabled = 0.0;
    let mut noop = 0.0;
    for _ in 0..ROUNDS {
        mfbc_trace::uninstall_all();
        disabled += criterion::time_per_call(ITERS, || run_once(&m, &df, &da));
        mfbc_trace::install(Arc::new(mfbc_trace::NoopRecorder::new()));
        noop += criterion::time_per_call(ITERS, || run_once(&m, &df, &da));
        mfbc_trace::uninstall_all();
    }
    let ratio = noop / disabled;
    println!(
        "trace overhead: noop/disabled time ratio = {ratio:.4} (target < 1.02, CI bound 1.10)"
    );
    assert!(
        ratio < 1.10,
        "no-op recorder overhead ratio {ratio:.4} exceeds CI bound"
    );
}
