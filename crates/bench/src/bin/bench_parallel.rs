//! Wall-clock comparison of serial vs pool-parallel SpGEMM, written
//! to `results/BENCH_parallel.json`.
//!
//! For each workload (the seeded 2048-vertex paper R-MAT and an
//! Erdős–Rényi graph of matching size) the tropical A·A product is
//! timed under `spgemm_serial` and under the `mfbc-parallel` pool at
//! 1, 2, 4, and 8 workers, after first asserting the pool output is
//! bit-identical to serial (entries AND op counts) at every size.
//!
//! The JSON records the host's available parallelism alongside the
//! timings: thread counts beyond the granted cores oversubscribe a
//! single CPU and cannot speed up, so read speedups relative to
//! `available_parallelism`.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::Dist;
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_sparse::{spgemm, spgemm_serial, Csr};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Median-of-`reps` wall time of `f`, in seconds.
fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Workload {
    name: &'static str,
    graph: &'static str,
    serial_s: f64,
    pool_s: Vec<(usize, f64)>,
    identical: bool,
}

fn run_workload(name: &'static str, graph: &'static str, a: &Csr<Dist>, reps: usize) -> Workload {
    let reference = spgemm_serial::<TropicalKernel>(a, a);
    let identical = THREADS.iter().all(|&t| {
        let out = mfbc_parallel::with_threads(t, || spgemm::<TropicalKernel>(a, a, None));
        out.mat.first_difference(&reference.mat).is_none() && out.ops == reference.ops
    });
    let serial_s = time(reps, || {
        black_box(spgemm_serial::<TropicalKernel>(a, a));
    });
    let pool_s = THREADS
        .iter()
        .map(|&t| {
            let s = time(reps, || {
                mfbc_parallel::with_threads(t, || {
                    black_box(spgemm::<TropicalKernel>(a, a, None));
                });
            });
            (t, s)
        })
        .collect();
    Workload {
        name,
        graph,
        serial_s,
        pool_s,
        identical,
    }
}

fn json(workloads: &[Workload], cores: usize, reps: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"spgemm_parallel\",");
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"reps_per_point\": {reps},");
    let _ = writeln!(
        out,
        "  \"note\": \"median wall time; pool output verified bit-identical to serial \
         (entries and op counts) at every thread count before timing; speedup over serial \
         is bounded by available_parallelism — thread counts beyond the granted cores \
         oversubscribe and only measure scheduling overhead\","
    );
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(out, "      \"graph\": \"{}\",", w.graph);
        let _ = writeln!(out, "      \"bit_identical\": {},", w.identical);
        let _ = writeln!(out, "      \"serial_s\": {:.6},", w.serial_s);
        out.push_str("      \"pool\": [\n");
        for (j, &(t, s)) in w.pool_s.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"threads\": {t}, \"time_s\": {:.6}, \"speedup_vs_serial\": {:.3}}}",
                s,
                w.serial_s / s
            );
            out.push_str(if j + 1 < w.pool_s.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str("    }");
        out.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 9 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Paper R-MAT at scale 11: 2048 vertices, edge factor 16.
    let g_rmat = rmat(&RmatConfig::paper(11, 16, 1));
    let g_er = uniform(2048, 2048 * 16, false, None, 7);

    let workloads = vec![
        run_workload(
            "rmat_tropical_a_x_a",
            "rmat scale=11 ef=16 seed=1 (n=2048)",
            g_rmat.adjacency(),
            reps,
        ),
        run_workload(
            "erdos_renyi_tropical_a_x_a",
            "uniform n=2048 m=32768 seed=7",
            g_er.adjacency(),
            reps,
        ),
    ];

    for w in &workloads {
        assert!(w.identical, "{}: pool output diverged from serial", w.name);
        println!("{} ({})", w.name, w.graph);
        println!("  serial       {:>10.3} ms", w.serial_s * 1e3);
        for &(t, s) in &w.pool_s {
            println!(
                "  pool t={t}     {:>10.3} ms   {:.2}x vs serial",
                s * 1e3,
                w.serial_s / s
            );
        }
    }

    let text = json(&workloads, cores, reps);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("BENCH_parallel.json");
    match std::fs::write(&path, &text) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }
}
