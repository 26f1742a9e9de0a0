//! Golden schedules for every enumerable plan.
//!
//! For p ∈ {4, 8, 9}, every plan of `enumerate_plans(p)` (plus one
//! autotuned product) runs masked and unmasked, under blocking
//! (`MachineSpec::test(p)`) and overlapped (`.with_overlap(true)`)
//! accounting. Each run is reduced to one line of
//! `golden/plan_schedules.txt`: the makespan bits, and a digest of the
//! per-rank meter bits, the per-rank peak bytes, the product, and the
//! *ordered* machine-visible trace (collective issue/charge/wait,
//! compute, redistribution, SpGEMM, autotune and span events). Unlike
//! `overlap.rs`, which compares sorted multisets and `≤` makespans,
//! this pins the exact order in which every plan charges, so a
//! reordered 2D or Cannon charge shows up even though the tuner never
//! picks those plans on the pinned bench suite.
//!
//! After an intended schedule change, regenerate with
//! `MFBC_BLESS=1 cargo test -p mfbc-tensor --test plan_golden` and
//! review the diff.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr, Mask, MaskKind};
use mfbc_tensor::{canonical_layout, enumerate_plans, mm, DistMat, MmOpts, Planning};
use mfbc_trace::{MemoryRecorder, TraceEvent};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = "tests/golden/plan_schedules.txt";

fn random_dist_mat(rng: &mut ChaCha8Rng, n: usize, nnz: usize) -> Csr<Dist> {
    let mut coo = Coo::new(n, n);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            Dist::new(rng.gen_range(1..50)),
        );
    }
    coo.into_csr::<MinDist>()
}

/// 64-bit FNV-1a: a stable, dependency-free digest of a run's text.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace events a schedule change can move. Pool events carry
/// wall-clock busy times and thread counts, and counters/logs are
/// observer chatter, so they are left out; span *names* are kept.
fn schedule_line(ev: &TraceEvent) -> Option<String> {
    match ev {
        TraceEvent::Pool { .. } | TraceEvent::Counter { .. } | TraceEvent::Log { .. } => None,
        other => Some(format!("{other:?}")),
    }
}

/// Runs one product and renders its golden line.
fn golden_line(
    p: usize,
    overlap: bool,
    plan: Planning<'_>,
    a: &Csr<Dist>,
    b: &Csr<Dist>,
    mask: Option<&Mask>,
) -> String {
    let n = a.nrows();
    let spec = MachineSpec::test(p).with_overlap(overlap);
    let rec = Arc::new(MemoryRecorder::new());
    let (m, out, chosen) = mfbc_trace::scoped(rec.clone(), || {
        let m = Machine::new(spec);
        let da = DistMat::from_global(canonical_layout(&m, n, n), a);
        let db = DistMat::from_global(canonical_layout(&m, n, n), b);
        let (out, chosen) = mm::<TropicalKernel>(
            &m,
            &da,
            &db,
            MmOpts {
                plan,
                mask,
                ..MmOpts::default()
            },
        )
        .unwrap_or_else(|e| panic!("p={p} plan={plan:?}: {e}"));
        (m, out, chosen)
    });
    let mut body = String::new();
    for r in rec.snapshot() {
        if let Some(line) = schedule_line(&r.event) {
            writeln!(body, "{line}").unwrap();
        }
    }
    for (r, c) in m.rank_costs().iter().enumerate() {
        writeln!(
            body,
            "rank {r}: msgs={} bytes={} comm={:#x} comp={:#x}",
            c.msgs,
            c.bytes,
            c.comm_time.to_bits(),
            c.comp_time.to_bits()
        )
        .unwrap();
    }
    writeln!(body, "peaks {:?}", m.memory_peaks()).unwrap();
    writeln!(body, "ops {} c {:?}", out.ops, out.c.to_global::<MinDist>()).unwrap();
    let label = match plan {
        Planning::Auto => format!("auto->{chosen}"),
        Planning::Fixed(_) => chosen.to_string(),
    };
    format!(
        "p={p} {} {} {label} makespan={:#018x} digest={:#018x}",
        if overlap { "overlap" } else { "blocking" },
        if mask.is_some() { "masked" } else { "unmasked" },
        m.makespan_s().to_bits(),
        fnv1a(&body)
    )
}

fn all_lines() -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let n = 41;
    let a = random_dist_mat(&mut rng, n, 170);
    let b = random_dist_mat(&mut rng, n, 190);
    let coords: Vec<(usize, usize)> = (0..n * n / 3)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mask = Mask::from_coords(MaskKind::Structural, n, n, &coords);
    let mut lines = Vec::new();
    for p in [4usize, 8, 9] {
        let plans = enumerate_plans(p);
        for overlap in [false, true] {
            for mk in [None, Some(&mask)] {
                for plan in &plans {
                    lines.push(golden_line(p, overlap, Planning::Fixed(plan), &a, &b, mk));
                }
                lines.push(golden_line(p, overlap, Planning::Auto, &a, &b, mk));
            }
        }
    }
    lines
}

#[test]
fn every_plan_schedule_matches_golden() {
    let got = all_lines();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("MFBC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with MFBC_BLESS=1)", path.display()));
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), got.len(), "golden case count changed");
    let diffs: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| *w != g)
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} plan schedules changed:\n{}",
        diffs.len(),
        got.len(),
        diffs.join("\n")
    );
}
