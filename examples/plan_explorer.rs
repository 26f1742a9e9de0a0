//! Plan explorer: what the autotuner sees. For one frontier ×
//! adjacency product, score every 1D/2D/3D plan with the analytic
//! cost model, print the ranking, then execute the best and worst
//! plans and compare their *charged* critical-path costs — showing
//! the decomposition search the paper's §6.2 describes, and that the
//! model's ordering matches the simulated machine's.
//!
//! Run with: `cargo run --release --example plan_explorer`

use mfbc::algebra::kernel::BellmanFordKernel;
use mfbc::algebra::{Multpath, MultpathMonoid};
use mfbc::prelude::*;
use mfbc::sparse::Coo;
use mfbc::tensor::autotune::{candidate_plans, stats_for};
use mfbc::tensor::costmodel::predict;
use mfbc::tensor::{canonical_layout, mm, DistMat, MmOpts};

fn main() {
    let p = 16;
    let g = rmat(&RmatConfig::paper(12, 16, 7));
    let n = g.n();
    let nb = 128;

    // A mid-BFS frontier: every source has reached ~64 vertices.
    let mut coo = Coo::new(nb, n);
    for s in 0..nb {
        for i in 0..64usize {
            coo.push(s, (s * 97 + i * 53) % n, Multpath::new(Dist::new(2), 1.0));
        }
    }
    let frontier = coo.into_csr::<MultpathMonoid>();

    let machine = Machine::new(MachineSpec::gemini(p));
    let df = DistMat::from_global(canonical_layout(&machine, nb, n), &frontier);
    let da = DistMat::from_global(canonical_layout(&machine, n, n), g.adjacency());

    let st = stats_for::<BellmanFordKernel>(&df, &da);
    println!(
        "product: frontier {}x{} (nnz {}) × adjacency {}x{} (nnz {}), p = {p}",
        nb, n, st.nnz_a, n, n, st.nnz_b
    );

    let mut ranked: Vec<(MmPlan, f64)> = candidate_plans(p)
        .into_iter()
        .map(|plan| {
            let t = predict(machine.spec(), &plan, &st);
            (plan, t)
        })
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    println!(
        "\npredicted cost ranking ({} candidate plans):",
        ranked.len()
    );
    for (plan, t) in ranked.iter().take(6) {
        println!("  {:<55} {:>10.3} ms", format!("{plan:?}"), t * 1e3);
    }
    println!("  …");
    for (plan, t) in ranked.iter().rev().take(2).rev() {
        println!("  {:<55} {:>10.3} ms", format!("{plan:?}"), t * 1e3);
    }

    // Execute best vs worst; the charged critical path should agree
    // with the model's ordering.
    let (best_plan, best_pred) = ranked.first().unwrap().clone();
    let (worst_plan, worst_pred) = ranked.last().unwrap().clone();

    let run = |plan: &MmPlan| -> f64 {
        let m = Machine::new(MachineSpec::gemini(p));
        let df = DistMat::from_global(canonical_layout(&m, nb, n), &frontier);
        let da = DistMat::from_global(canonical_layout(&m, n, n), g.adjacency());
        let _ = mm::<BellmanFordKernel>(&m, &df, &da, MmOpts::fixed(plan)).expect("plan executes");
        m.report().critical.total_time()
    };
    let best_t = run(&best_plan);
    let worst_t = run(&worst_plan);
    println!("\ncharged on the simulated machine:");
    println!(
        "  best  {best_plan:?}: predicted {:.3} ms, charged {:.3} ms",
        best_pred * 1e3,
        best_t * 1e3
    );
    println!(
        "  worst {worst_plan:?}: predicted {:.3} ms, charged {:.3} ms",
        worst_pred * 1e3,
        worst_t * 1e3
    );
    assert!(
        best_t < worst_t,
        "model ordering must hold on the machine: {best_t} vs {worst_t}"
    );
    println!("\nmodel ordering confirmed by the machine ✓");
}
