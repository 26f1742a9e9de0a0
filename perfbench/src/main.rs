//! Two-clock benchmark of the MFBC stack.
//!
//! ```text
//! mfbc-perfbench --workload bc-rmat|bc-weighted|serve-mixed --seed N \
//!     --seconds S --trace 0|1 [--smoke] [--mutate flip-score|drop-response] \
//!     [--spans-out FILE]
//! ```
//!
//! `--trace 0` times the workload with observers off and prints the
//! end-to-end metrics; `--trace 1` makes one traced run and prints the
//! per-layer metrics and the reconciliation table. Every output is
//! checked; the last stdout line is the JSON result, and the exit code
//! is nonzero when any check failed. `--smoke` shrinks the inputs for
//! the self-test, and `--mutate` breaks one output on purpose to prove
//! the checks catch it.

mod bc;
mod layers;
mod serve;
mod util;

use mfbc_profile::jsonio;
use util::{json_str, Opts, Outcome};

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    mutate: Option<String>,
    spans_out: Option<String>,
}

const WORKLOADS: [&str; 3] = ["bc-rmat", "bc-weighted", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut mutate = None;
    let mut spans_out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|k| **k == w)
                        .ok_or(format!("unknown workload {w:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a nonnegative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            "--smoke" => smoke = true,
            "--mutate" => {
                let m = value()?;
                if m != "flip-score" && m != "drop-response" {
                    return Err(format!("unknown mutation {m:?}"));
                }
                mutate = Some(m);
            }
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        mutate,
        spans_out,
    })
}

/// Pool participants. Timed runs use one: their metrics read the
/// process CPU clock, which then counts the work of a solve whatever
/// parallelism the host grants (with two threads on a shared host it
/// falls when the second thread cannot run beside the first). The
/// traced run uses every core, at most two, because the local kernel is
/// timed only where it runs on the pool.
fn pool_threads(trace: bool) -> usize {
    if !trace {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfbc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = pool_threads(args.trace);
    let used = mfbc_parallel::with_threads(threads, mfbc_parallel::current_threads);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "host {{\"nproc\":{},\"pool_threads\":{used},\"cpu\":{},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&env("PERFBENCH_COMMIT")),
    );
    println!(
        "run {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{}}}",
        json_str(args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke
    );

    let opts = Opts {
        seconds: args.seconds,
        threads,
        trace: args.trace,
        mutate: args.mutate,
        spans_out: args.spans_out,
    };
    let out = mfbc_parallel::with_threads(threads, || match args.workload {
        "serve-mixed" => serve::run(&serve::generate(args.seed, args.smoke), &opts),
        w => bc::run(&bc::generate(w, args.seed, args.smoke), &opts),
    });
    report(&out);
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

/// Prints the metric table, the failures, and the JSON result line.
fn report(out: &Outcome) {
    for m in &out.metrics {
        println!(
            "  {:<30} {:>22} {}",
            m.name,
            format!("{:.9}", m.value),
            m.unit
        );
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                jsonio::num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}
