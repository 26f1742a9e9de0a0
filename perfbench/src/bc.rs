//! The `bc-rmat` and `bc-weighted` workloads: one batch of the
//! distributed MFBC driver on a simulated Gemini machine (the paper's
//! Table 3 method), through `Graph::new`, `MfbcSession::new` and the
//! `MfbcSession::step` loop.

use crate::layers::{self, Extra};
use crate::util::{self, digest, median, same_bits, secs, Mark, Opts, Outcome};
use mfbc_algebra::Dist;
use mfbc_core::{approx_from_sources, MfbcConfig, MfbcSession, SessionStep};
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::prep::remove_isolated;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_trace::{span, MemoryRecorder};
use std::sync::Arc;
use std::time::Instant;

/// Seed whose scores are pinned by a committed digest.
pub const PINNED_SEED: u64 = 42;

/// Relative tolerance against the sequential reference: the two
/// accumulate the same dependencies in a different order.
pub const REF_TOL: f64 = 1e-9;

/// `mfbc-cli simulate --nodes 16 --graph rmat:12,8 --batch 256` at the
/// pinned seed prints these; the benchmark must reproduce them.
const RMAT_CRIT_BYTES: u64 = 4_950_036;
const RMAT_MODELED_TIME: &str = "0.005501";

/// Solves timed at least, whatever `--seconds` says.
const MIN_SOLVES: usize = 3;
/// Set-ups timed on their own after the solves.
const EXTRA_SETUPS: usize = 60;
/// Untimed solves before the traced one, for the observer overhead.
const UNTRACED_SOLVES: usize = 3;

/// One generated `bc-*` input: the edge list handed to the program,
/// plus the machine shape.
pub struct BcInput {
    pub workload: &'static str,
    n: usize,
    edges: Vec<(usize, usize, Dist)>,
    /// The generator's graph, for checking that `Graph::new` over the
    /// edge list rebuilds it exactly.
    generated: Graph,
    p: usize,
    batch: usize,
    /// Committed score digest, for full-size inputs at the pinned seed.
    digest: Option<u64>,
    rmat_crosscheck: bool,
}

/// Generates the input of `workload` from `seed`; `smoke` shrinks it.
pub fn generate(workload: &'static str, seed: u64, smoke: bool) -> BcInput {
    let pinned = seed == PINNED_SEED && !smoke;
    let (generated, p, batch, digest) = match workload {
        "bc-rmat" => {
            let scale = if smoke { 8 } else { 12 };
            let g = remove_isolated(&rmat(&RmatConfig::paper(scale, 8, seed)));
            (g, 16, if smoke { 64 } else { 256 }, 0x8e14_fad2_ccd6_5f8b)
        }
        "bc-weighted" => {
            let (n, m) = if smoke { (128, 2048) } else { (1024, 65_536) };
            let g = uniform(n, m, false, Some(16), seed);
            (g, 4, if smoke { 64 } else { 256 }, 0x5b8e_03a2_5360_d956)
        }
        other => panic!("not a bc workload: {other}"),
    };
    let n = generated.n();
    let edges = (0..n)
        .flat_map(|u| {
            generated
                .neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
        .collect();
    BcInput {
        workload,
        n,
        edges,
        generated,
        p,
        batch,
        digest: pinned.then_some(digest),
        rmat_crosscheck: pinned && workload == "bc-rmat",
    }
}

/// A solved batch: the scores and the machine's modeled numbers.
struct Solved {
    lambda: Vec<f64>,
    makespan_s: f64,
    crit_time_s: f64,
    crit_bytes: u64,
    crit_msgs: u64,
    cache_hit_ratio: f64,
}

impl Solved {
    fn modeled(&self) -> (u64, u64, u64, u64) {
        (
            self.makespan_s.to_bits(),
            self.crit_time_s.to_bits(),
            self.crit_bytes,
            self.crit_msgs,
        )
    }
}

/// Set-up: from the edge list in hand to a session ready for its
/// first batch.
fn setup(inp: &BcInput, threads: usize) -> Result<(Machine, MfbcSession), String> {
    let g = {
        let _s = span(|| "bench:graph.build".to_string());
        Graph::new(inp.n, false, inp.edges.iter().copied())
    };
    let _s = span(|| "bench:core.session_new".to_string());
    let machine = Machine::new(MachineSpec::gemini(inp.p));
    let cfg = MfbcConfig {
        batch_size: Some(inp.batch),
        max_batches: Some(1),
        threads: Some(threads),
        ..MfbcConfig::default()
    };
    let session = MfbcSession::new(&machine, &g, &cfg).map_err(|e| e.to_string())?;
    Ok((machine, session))
}

/// The solve: `MfbcSession::step` until it reports `Done`.
fn solve(session: &mut MfbcSession) -> Result<(), String> {
    loop {
        let _s = span(|| "bench:core.step".to_string());
        match session.step() {
            Ok(SessionStep::Done) => return Ok(()),
            Ok(SessionStep::Committed { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn finish(machine: &Machine, mut session: MfbcSession) -> Solved {
    let cache = session.cache_stats();
    let run = session.finish();
    let lookups = cache.hits + cache.misses;
    Solved {
        lambda: run.scores.lambda,
        makespan_s: machine.makespan_s(),
        crit_time_s: run.report.critical.total_time(),
        crit_bytes: run.report.critical.bytes,
        crit_msgs: run.report.critical.msgs,
        cache_hit_ratio: if lookups > 0 {
            cache.hits as f64 / lookups as f64
        } else {
            0.0
        },
    }
}

/// The checks every solve passes: the committed digest (pinned seed),
/// the sequential reference within [`REF_TOL`], bit-identity with the
/// first solve of the process, and bit-identical modeled numbers.
struct Checker<'a> {
    inp: &'a BcInput,
    reference: Vec<f64>,
    first: Option<Solved>,
}

impl Checker<'_> {
    /// Checks `s`; the first solve checked becomes the one later
    /// repetitions must match bit for bit.
    fn check(&mut self, s: Solved) -> Option<String> {
        let err = self.verify(&s);
        if self.first.is_none() {
            self.first = Some(s);
        }
        err
    }

    fn verify(&self, s: &Solved) -> Option<String> {
        let _c = span(|| "bench:check".to_string());
        let w = self.inp.workload;
        if let Some(want) = self.inp.digest {
            let got = digest(&s.lambda);
            if got != want {
                return Some(format!(
                    "{w}: score digest {got:#018x} != committed {want:#018x}"
                ));
            }
        }
        let reference = mfbc_core::BcScores {
            lambda: self.reference.clone(),
        };
        let scores = mfbc_core::BcScores {
            lambda: s.lambda.clone(),
        };
        if !scores.approx_eq(&reference, REF_TOL) {
            return Some(format!(
                "{w}: scores differ from the sequential reference by {:e}",
                scores.max_abs_diff(&reference)
            ));
        }
        if self.inp.rmat_crosscheck {
            let t = format!("{:.6}", s.crit_time_s);
            if s.crit_bytes != RMAT_CRIT_BYTES || t != RMAT_MODELED_TIME {
                return Some(format!(
                    "{w}: modeled critical bytes {} / time {t} differ from simulate's {RMAT_CRIT_BYTES} / {RMAT_MODELED_TIME}",
                    s.crit_bytes
                ));
            }
        }
        match &self.first {
            Some(f) if !same_bits(&f.lambda, &s.lambda) => {
                Some(format!("{w}: scores differ bitwise between repetitions"))
            }
            Some(f) if f.modeled() != s.modeled() => {
                Some(format!("{w}: modeled numbers differ between repetitions"))
            }
            _ => None,
        }
    }
}

/// Flips the lowest bit of one score: the mutation the self-test uses
/// to prove a wrong score registers as a failed operation.
fn flip_bit(s: &mut Solved) {
    if let Some(x) = s.lambda.iter_mut().find(|x| **x != 0.0) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
}

/// Sequential scores for the batch's sources: the `mfbc-core` seq
/// routines, unscaled.
fn reference(inp: &BcInput) -> Vec<f64> {
    let sources: Vec<usize> = (0..inp.batch.min(inp.n)).collect();
    let scale = inp.n as f64 / sources.len() as f64;
    approx_from_sources(&inp.generated, &sources)
        .lambda
        .into_iter()
        .map(|x| x / scale)
        .collect()
}

/// One timed repetition: set-up, solve, and the solved batch.
struct Rep {
    /// Set-up and solve in process CPU seconds.
    setup_s: f64,
    solve_s: f64,
    /// The solve in wall seconds, printed beside the CPU figures.
    solve_wall_s: f64,
    /// Peak resident memory over this repetition alone.
    rss_mb: f64,
    solved: Solved,
}

/// Sets up and solves once; failures are checked into `out`.
fn once(inp: &BcInput, threads: usize, out: &mut Outcome) -> Option<Rep> {
    util::reset_peak_rss();
    let t0 = Mark::now();
    let built = setup(inp, threads);
    let setup_s = t0.cpu();
    let (machine, mut session) = match built {
        Ok(b) => b,
        Err(e) => {
            out.check(Some(format!("{}: set-up failed: {e}", inp.workload)));
            return None;
        }
    };
    let t1 = Mark::now();
    let solved = solve(&mut session);
    let (solve_s, solve_wall_s) = (t1.cpu(), t1.wall());
    if let Err(e) = solved {
        out.check(Some(format!("{}: solve failed: {e}", inp.workload)));
        return None;
    }
    let solved = finish(&machine, session);
    Some(Rep {
        setup_s,
        solve_s,
        solve_wall_s,
        rss_mb: util::peak_rss_mb(),
        solved,
    })
}

/// Runs one `bc-*` workload and returns its outcome.
pub fn run(inp: &BcInput, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let rebuilt = Graph::new(inp.n, false, inp.edges.iter().copied());
    out.check((rebuilt.adjacency() != inp.generated.adjacency()).then(|| {
        format!(
            "{}: Graph::new does not rebuild the generated graph",
            inp.workload
        )
    }));
    let mut checker = Checker {
        inp,
        reference: reference(inp),
        first: None,
    };

    // Warm-up: caches, page faults and the pool's threads; checked,
    // not timed.
    if let Some(rep) = once(inp, opts.threads, &mut out) {
        let e = checker.check(rep.solved);
        out.check(e);
    }
    if opts.trace {
        return traced(inp, opts, &mut checker, out);
    }

    let mut reps: Vec<Rep> = Vec::new();
    let t_run = Instant::now();
    while reps.len() < MIN_SOLVES || secs(t_run) < opts.seconds {
        let Some(mut rep) = once(inp, opts.threads, &mut out) else {
            break;
        };
        if opts.mutates("flip-score") && reps.is_empty() {
            flip_bit(&mut rep.solved);
        }
        let e = checker.verify(&rep.solved);
        out.check(e);
        reps.push(rep);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    for _ in 0..EXTRA_SETUPS {
        let t0 = Mark::now();
        let built = setup(inp, opts.threads);
        setups.push(t0.cpu());
        drop(built);
    }
    let Some(first) = checker.first.as_ref().filter(|_| !reps.is_empty()) else {
        return out;
    };
    let solves: Vec<f64> = reps.iter().map(|r| r.solve_s).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.solve_wall_s).collect();
    let requests: Vec<f64> = reps.iter().map(|r| r.setup_s + r.solve_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.rss_mb).collect();
    let (p95, q, beyond) = util::tail(&requests, 95.0);
    println!(
        "{}: {} solves, {} set-ups; a request is set-up plus solve, so serve_p95_cpu_ms is the \
         nearest-rank p{q:.1} of {} samples ({beyond} beyond it); median solve wall {:.6} s",
        inp.workload,
        solves.len(),
        setups.len(),
        requests.len(),
        median(&walls),
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("solve_cpu_s", median(&solves), "s");
    out.metric("serve_p50_cpu_ms", median(&requests) * 1e3, "ms");
    out.metric("serve_p95_cpu_ms", p95 * 1e3, "ms");
    out.metric(
        "serve_cpu_rps",
        requests.len() as f64 / requests.iter().sum::<f64>(),
        "req/s",
    );
    out.metric("serve_exact_share", 1.0, "ratio");
    out.metric("modeled_makespan_s", first.makespan_s, "s");
    out.metric("modeled_crit_bytes", first.crit_bytes as f64, "bytes");
    out.metric("peak_rss_mb", median(&rss), "MB");
    out
}

/// The traced run: untraced solves for the overhead baseline, then one
/// set-up, solve and check under a `MemoryRecorder`.
fn traced(inp: &BcInput, opts: &Opts, checker: &mut Checker, mut out: Outcome) -> Outcome {
    let mut untraced = Vec::new();
    for _ in 0..UNTRACED_SOLVES {
        if let Some(rep) = once(inp, opts.threads, &mut out) {
            let e = checker.check(rep.solved);
            out.check(e);
            untraced.push(rep.solve_wall_s);
        }
    }
    let rec = Arc::new(MemoryRecorder::new());
    let t_traced = Instant::now();
    let (solve_s, hit_ratio, crit_msgs) = mfbc_trace::scoped(rec.clone(), || {
        let _root = span(|| "bench:run".to_string());
        let (machine, mut session) = match setup(inp, opts.threads) {
            Ok(b) => b,
            Err(e) => {
                out.check(Some(format!("{}: set-up failed: {e}", inp.workload)));
                return (0.0, 0.0, 0);
            }
        };
        let t0 = Instant::now();
        let solved = solve(&mut session);
        let solve_s = secs(t0);
        if let Err(e) = solved {
            out.check(Some(format!("{}: solve failed: {e}", inp.workload)));
            return (solve_s, 0.0, 0);
        }
        let s = finish(&machine, session);
        let stats = (s.cache_hit_ratio, s.crit_msgs);
        let e = checker.check(s);
        out.check(e);
        (solve_s, stats.0, stats.1)
    });
    let wall_s = secs(t_traced);
    let a = layers::analyze(&rec.take());
    let overhead_s = if untraced.is_empty() {
        0.0
    } else {
        solve_s - median(&untraced)
    };
    let residual = a.residual_s(wall_s);
    out.check((residual.abs() > layers::RESIDUAL_SHARE * wall_s).then(|| {
        format!(
            "{}: layer self times miss the traced wall by {residual:.6} s",
            inp.workload
        )
    }));
    if let Some(e) = opts.write_spans(&a.spans) {
        out.check(Some(e));
    }
    let extra = Extra {
        wall_s,
        spec_ops_per_s: 1.0 / MachineSpec::gemini(inp.p).gamma,
        cache_hit_ratio: hit_ratio,
        crit_msgs,
        overhead_s,
        serve_fail_rate: 0.0,
    };
    print!("{}", a.table(inp.workload, &extra));
    out.metrics = a.metrics(&extra);
    out
}
