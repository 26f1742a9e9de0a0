//! The `serve-mixed` workload: an `mfbc-serve` engine answering a
//! seeded stream of JSON request lines through `wire::parse_line`,
//! `Engine::submit`, `Engine::drain` and `wire::render_response`.
//!
//! The stream is a closed loop of [`CLIENTS`] logical clients on one
//! thread against a queue of [`QUEUE`]. Each tick, every client that is
//! ready hands in one line; the engine then drains, and each answered
//! client thinks for a seeded number of ticks. Clients
//! `0..QUEUE` are regular; the last two join only at the
//! [`BURST_TICKS`], when every client is forced ready, so exactly two
//! requests are shed per burst. Admission therefore never depends on
//! wall time, and the shed and rung decisions replay identically: only
//! the clocks vary between repetitions.

use crate::layers::{self, Extra};
use crate::util::{self, cpu_now, median, percentile, same_bits, secs, Mark, Opts, Outcome};
use mfbc_conformance::SplitMix64 as Rng;
use mfbc_core::{mfbc_dist, sample_rel_se, MfbcConfig, MfbcSession, SessionStep};
use mfbc_graph::gen::uniform;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_serve::wire::{self, WireCmd};
use mfbc_serve::{Admission, Engine, EngineConfig, Payload, Quality, Query, Response};
use mfbc_trace::{span, MemoryRecorder};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 8;
const QUEUE: usize = 6;
/// Ticks at which every client is forced ready (two sheds each).
const BURST_TICKS: [u64; 1] = [10];
/// Lines sent after the store turns exact; then the stream ends.
const TAIL: usize = 20;
/// A stream that has not turned exact by this tick is a failure.
const MAX_TICKS: u64 = 5_000;
const MIN_APPROX_K: usize = 4;
/// Distinct request streams per run, all against the one graph. Timed
/// replays cycle through them in whole cycles and the figures pool over
/// all of them, so a run's traffic mix does not hang on one stream's
/// draws.
const STREAMS: usize = 8;
/// Untimed replays before the traced one, for the observer overhead.
const UNTRACED_STREAMS: usize = 3;
/// Set-ups timed on their own after the streams.
const EXTRA_SETUPS: usize = 100;

/// One generated `serve-mixed` input: the edge list and the stream
/// seeds; the request lines are drawn from them as the loop runs,
/// because deadlines are multiples of the engine's current batch
/// estimate.
pub struct ServeInput {
    n: usize,
    edges: Vec<(usize, usize, mfbc_algebra::Dist)>,
    p: usize,
    batch: usize,
    stream_seeds: Vec<u64>,
}

pub fn generate(seed: u64, smoke: bool) -> ServeInput {
    let (n, m, p, batch) = if smoke {
        (128, 512, 16, 16)
    } else {
        (1024, 4096, 64, 32)
    };
    let g = uniform(n, m, false, None, seed);
    let edges = (0..n)
        .flat_map(|u| {
            g.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
        .collect();
    ServeInput {
        n,
        edges,
        p,
        batch,
        stream_seeds: (0..STREAMS as u64)
            .map(|i| {
                (seed ^ 0x5e4e_5e4e_5e4e_5e4e).wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            })
            .collect(),
    }
}

fn config(inp: &ServeInput, threads: usize) -> MfbcConfig {
    MfbcConfig {
        batch_size: Some(inp.batch),
        threads: Some(threads),
        ..MfbcConfig::default()
    }
}

/// Set-up: from the edge list in hand to an engine ready for its first
/// request.
fn setup(inp: &ServeInput, stream: usize, threads: usize) -> Result<(Machine, Engine), String> {
    let g = {
        let _s = span(|| "bench:graph.build".to_string());
        Graph::new(inp.n, false, inp.edges.iter().copied())
    };
    let _s = span(|| "bench:serve.engine_new".to_string());
    let machine = Machine::new(MachineSpec::gemini(inp.p));
    let ecfg = EngineConfig {
        max_queue: QUEUE,
        min_approx_k: MIN_APPROX_K,
        seed: inp.stream_seeds[stream],
        ..EngineConfig::default()
    };
    let engine =
        Engine::new(&machine, g, &config(inp, threads), ecfg).map_err(|e| e.to_string())?;
    Ok((machine, engine))
}

/// What exact and stale answers must equal: the one-shot `mfbc_dist`
/// scores, and the partial sums after each committed batch.
struct Reference {
    exact: Vec<f64>,
    partial: Vec<Vec<f64>>,
}

fn reference(inp: &ServeInput, threads: usize) -> Result<Reference, String> {
    let g = Graph::new(inp.n, false, inp.edges.iter().copied());
    let cfg = config(inp, threads);
    let exact = mfbc_dist(&Machine::new(MachineSpec::gemini(inp.p)), &g, &cfg)
        .map_err(|e| e.to_string())?
        .scores
        .lambda;
    let machine = Machine::new(MachineSpec::gemini(inp.p));
    let mut session = MfbcSession::new(&machine, &g, &cfg).map_err(|e| e.to_string())?;
    let mut partial = vec![vec![0.0; inp.n]];
    while let SessionStep::Committed { .. } = session.step().map_err(|e| e.to_string())? {
        partial.push(session.scores().lambda.clone());
    }
    Ok(Reference { exact, partial })
}

/// A client's next line, drawn in the proportions of the repository's
/// own serving load (`crates/bench/src/serveload.rs`): half `topk` (k in
/// 1..=8), a quarter `vertex` (v below 64), a quarter `full`; deadlines a
/// third funding exact progress, a third 0.2–0.9 of the engine's current
/// estimate for one exact batch, a third zero (stale probes). The load
/// sends its progress third unbounded, which would finish the whole
/// store in the first round; here that third funds one batch plus the
/// same 0.2–0.9 fraction, so the store turns exact over many rounds.
fn next_line(rng: &mut Rng, id: u64, est_batch_s: f64) -> String {
    let query = match rng.below(4) {
        0 => "\"query\":\"full\"".to_string(),
        1 => format!("\"query\":\"vertex\",\"v\":{}", rng.below(64)),
        _ => format!("\"query\":\"topk\",\"k\":{}", 1 + rng.below(8)),
    };
    let fraction = |rng: &mut Rng| 0.2 + 0.1 * rng.below(8) as f64;
    let deadline = match rng.below(3) {
        0 => (1.0 + fraction(rng)) * est_batch_s,
        1 => fraction(rng) * est_batch_s,
        _ => 0.0,
    };
    format!("{{\"id\":{id},{query},\"deadline_s\":{deadline}}}")
}

/// One replay of the stream through a fresh engine.
#[derive(Default)]
struct Replay {
    /// Per request: process CPU seconds from the line handed to
    /// `parse_line` to its rendered response; infinite for shed or
    /// missing ones.
    latency_s: Vec<f64>,
    answered: u64,
    shed: u64,
    exact: u64,
    setup_s: f64,
    /// Peak resident memory over this replay alone.
    rss_mb: f64,
    /// The stream from first line to last response, on both clocks.
    wall_s: f64,
    cpu_s: f64,
    /// Process CPU seconds inside the `Engine::drain` calls that
    /// committed a batch: the engine's time to an exact store, without
    /// rounds that commit nothing or the harness between rounds.
    commit_s: f64,
    modeled_s: f64,
    crit_bytes: u64,
    crit_msgs: u64,
    cache_hit_ratio: f64,
    /// Per request: id, outcome label, version, approx k — compared
    /// across replays.
    outcomes: Vec<(u64, &'static str, u64, u64)>,
}

struct Replayer<'a> {
    inp: &'a ServeInput,
    reference: &'a Reference,
    drop_one: bool,
}

impl Replayer<'_> {
    /// Checks one response against the reference; `None` when it holds.
    fn check(&self, r: &Response, q: &Query, line: &str, store_version: u64) -> Option<String> {
        let scores: &[f64] = match r.quality {
            Quality::Exact => {
                if r.version as usize + 1 != self.reference.partial.len() {
                    return Some(format!(
                        "id {}: exact answer at version {}",
                        r.id, r.version
                    ));
                }
                &self.reference.exact
            }
            Quality::Approx { k, ci } => {
                let tagged =
                    line.contains(&format!("\"approx_k\":{k},")) && line.contains("\"ci\":");
                if !(MIN_APPROX_K..=self.inp.n).contains(&k)
                    || ci.to_bits() != sample_rel_se(self.inp.n, k).to_bits()
                    || r.version != store_version
                    || !tagged
                {
                    return Some(format!("id {}: approx tags wrong: {line}", r.id));
                }
                return payload_shape(r, q, self.inp.n);
            }
            Quality::Stale { version } => {
                let tagged = line.contains(&format!("\"stale_version\":{version},"));
                match self.reference.partial.get(version as usize) {
                    Some(p) if version == r.version && tagged => p,
                    _ => return Some(format!("id {}: stale tags wrong: {line}", r.id)),
                }
            }
        };
        if let Some(e) = payload_shape(r, q, self.inp.n) {
            return Some(e);
        }
        let ok = match &r.payload {
            Payload::Full(v) => same_bits(v, scores),
            Payload::Vertex { v, score } => score.to_bits() == scores[*v].to_bits(),
            Payload::TopK(pairs) => {
                let want = mfbc_core::BcScores {
                    lambda: scores.to_vec(),
                }
                .top_k(pairs.len());
                want.len() == pairs.len()
                    && want
                        .iter()
                        .zip(pairs)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }
        };
        (!ok).then(|| {
            format!(
                "id {}: {} payload differs from the reference",
                r.id,
                r.quality.name()
            )
        })
    }

    /// Replays stream `stream` once. Every response is checked into
    /// `out`.
    fn replay(&self, stream: usize, threads: usize, out: &mut Outcome) -> Option<Replay> {
        util::reset_peak_rss();
        let t_setup = Mark::now();
        let built = setup(self.inp, stream, threads);
        let setup_s = t_setup.cpu();
        let (machine, mut engine) = match built {
            Ok(b) => b,
            Err(e) => {
                out.check(Some(format!("serve-mixed: set-up failed: {e}")));
                return None;
            }
        };
        let mut rep = Replay::default();
        let mut rng = Rng::new(self.inp.stream_seeds[stream]);
        let mut clients: Vec<(Rng, u64)> = (0..CLIENTS)
            .map(|c| {
                let first = if c < QUEUE { 0 } else { u64::MAX };
                (Rng::new(rng.next_u64()), first)
            })
            .collect();
        let mut next_id = 1u64;
        let mut tail_left: Option<usize> = None;
        let mut dropped = false;
        let t0 = Mark::now();
        let mut tick = 0u64;
        while tail_left != Some(0) {
            if tick >= MAX_TICKS {
                out.check(Some("serve-mixed: stream never turned exact".to_string()));
                return None;
            }
            if BURST_TICKS.contains(&tick) {
                for c in &mut clients {
                    c.1 = c.1.min(tick);
                }
            }
            let mut pending: BTreeMap<u64, (usize, Query, f64)> = BTreeMap::new();
            for (c, client) in clients.iter_mut().enumerate() {
                if client.1 > tick {
                    continue;
                }
                match &mut tail_left {
                    Some(0) => break,
                    Some(t) => *t -= 1,
                    None => {}
                }
                let id = next_id;
                next_id += 1;
                let est = engine.est_batch_modeled_s();
                let line = next_line(&mut client.0, id, est);
                let t_req = cpu_now();
                let parsed = {
                    let _s = span(|| format!("bench:serve.parse req={id}"));
                    wire::parse_line(&line)
                };
                let req = match parsed {
                    Ok(WireCmd::Request(req)) => req,
                    other => {
                        out.check(Some(format!(
                            "serve-mixed: line {line} parsed as {other:?}"
                        )));
                        continue;
                    }
                };
                let admission = {
                    let _s = span(|| format!("bench:serve.submit req={id}"));
                    engine.submit(req)
                };
                match admission {
                    Admission::Admitted => {
                        pending.insert(id, (c, req.query, t_req));
                    }
                    Admission::Shed(reason) => {
                        // Only the burst overflows the queue; any other
                        // refusal is a wrong answer.
                        let line = wire::render_shed(id, reason);
                        out.check(
                            (!line.contains("\"shed\":\"queue-full\"") || c < QUEUE)
                                .then(|| format!("serve-mixed: unexpected refusal {line}")),
                        );
                        rep.shed += 1;
                        rep.latency_s.push(f64::INFINITY);
                        rep.outcomes.push((id, "shed", 0, 0));
                        client.1 = self.think(c, &mut client.0, tick);
                    }
                }
            }
            if !pending.is_empty() {
                let round = tick;
                let version_before = engine.store_version();
                let t_drain = cpu_now();
                let mut responses = {
                    let _s = span(|| format!("bench:serve.drain round={round}"));
                    engine.drain()
                };
                if engine.store_version() > version_before {
                    rep.commit_s += cpu_now() - t_drain;
                }
                if self.drop_one && !dropped && responses.len() > 1 {
                    responses.pop();
                    dropped = true;
                }
                let version = engine.store_version();
                // Render every response before checking any, so no
                // request's latency holds check time.
                let rendered: Vec<(String, f64)> = responses
                    .iter()
                    .map(|r| {
                        let _s = span(|| format!("bench:serve.render req={} round={round}", r.id));
                        (wire::render_response(r), cpu_now())
                    })
                    .collect();
                if tail_left.is_none() && engine.exact_complete() {
                    tail_left = Some(TAIL);
                }
                for (r, (line, done)) in responses.iter().zip(&rendered) {
                    let Some((c, q, t_req)) = pending.remove(&r.id) else {
                        out.check(Some(format!(
                            "serve-mixed: unexpected or duplicate response {}",
                            r.id
                        )));
                        continue;
                    };
                    rep.latency_s.push(done - t_req);
                    rep.answered += 1;
                    if r.quality == Quality::Exact {
                        rep.exact += 1;
                    }
                    let k = match r.quality {
                        Quality::Approx { k, .. } => k as u64,
                        _ => 0,
                    };
                    rep.outcomes.push((r.id, r.quality.name(), r.version, k));
                    let e = {
                        let _s = span(|| "bench:check".to_string());
                        self.check(r, &q, line, version)
                    };
                    out.check(e);
                    clients[c].1 = self.think(c, &mut clients[c].0, tick);
                }
                for (id, (c, _, _)) in std::mem::take(&mut pending) {
                    out.check(Some(format!(
                        "serve-mixed: admitted request {id} got no response"
                    )));
                    rep.latency_s.push(f64::INFINITY);
                    rep.outcomes.push((id, "missing", 0, 0));
                    clients[c].1 = tick + 1;
                }
            }
            tick += 1;
        }
        rep.wall_s = t0.wall();
        rep.cpu_s = t0.cpu();
        rep.modeled_s = engine.modeled_s();
        let report = machine.report();
        rep.crit_bytes = report.critical.bytes;
        rep.crit_msgs = report.critical.msgs;
        let cache = engine.cache_stats();
        let lookups = cache.hits + cache.misses;
        rep.cache_hit_ratio = if lookups > 0 {
            cache.hits as f64 / lookups as f64
        } else {
            0.0
        };
        rep.setup_s = setup_s;
        rep.rss_mb = util::peak_rss_mb();
        Some(rep)
    }

    /// The tick at which client `c`, answered at `tick`, is ready again.
    fn think(&self, c: usize, rng: &mut Rng, tick: u64) -> u64 {
        if c >= QUEUE {
            return u64::MAX; // burst clients wait for the next burst
        }
        tick + 1 + *rng.pick(&[0, 0, 1, 1, 2])
    }
}

/// Runs the `serve-mixed` workload and returns its outcome.
pub fn run(inp: &ServeInput, opts: &Opts) -> Outcome {
    let threads = opts.threads;
    let mut out = Outcome::default();
    let reference = match reference(inp, threads) {
        Ok(r) => r,
        Err(e) => {
            out.check(Some(format!("serve-mixed: reference run failed: {e}")));
            return out;
        }
    };
    out.check(
        (!same_bits(
            &reference.exact,
            reference.partial.last().expect("version 0"),
        ))
        .then(|| "serve-mixed: stepped session disagrees with one-shot mfbc_dist".to_string()),
    );
    let replayer = Replayer {
        inp,
        reference: &reference,
        drop_one: opts.mutates("drop-response"),
    };
    // The first replay of each stream; later ones must match it.
    let mut firsts: Vec<Option<Replay>> = (0..STREAMS).map(|_| None).collect();
    let mut keep = |stream: usize, rep: Replay, out: &mut Outcome| match &firsts[stream] {
        None => firsts[stream] = Some(rep),
        Some(f) => {
            let same = f.outcomes == rep.outcomes
                && f.modeled_s.to_bits() == rep.modeled_s.to_bits()
                && f.crit_bytes == rep.crit_bytes;
            out.check((!same).then(|| {
                "serve-mixed: replays disagree on outcomes or modeled numbers".to_string()
            }));
        }
    };

    // Warm-up replay: checked, not timed.
    let Some(warm) = replayer.replay(0, threads, &mut out) else {
        return out;
    };
    keep(0, warm, &mut out);

    if opts.trace {
        let mut untraced = Vec::new();
        for _ in 0..UNTRACED_STREAMS {
            let Some(rep) = replayer.replay(0, threads, &mut out) else {
                return out;
            };
            untraced.push(rep.wall_s);
            keep(0, rep, &mut out);
        }
        let rec = Arc::new(MemoryRecorder::new());
        let t_traced = Instant::now();
        let traced = mfbc_trace::scoped(rec.clone(), || {
            let _root = span(|| "bench:run".to_string());
            replayer.replay(0, threads, &mut out)
        });
        let Some(rep) = traced else {
            return out;
        };
        let wall_s = secs(t_traced);
        let a = layers::analyze(&rec.take());
        let overhead_s = rep.wall_s - median(&untraced);
        let residual = a.residual_s(wall_s);
        out.check((residual.abs() > layers::RESIDUAL_SHARE * wall_s).then(|| {
            format!("serve-mixed: layer self times miss the traced wall by {residual:.6} s")
        }));
        if let Some(e) = opts.write_spans(&a.spans) {
            out.check(Some(e));
        }
        let extra = Extra {
            wall_s,
            spec_ops_per_s: 1.0 / MachineSpec::gemini(inp.p).gamma,
            cache_hit_ratio: rep.cache_hit_ratio,
            crit_msgs: rep.crit_msgs,
            overhead_s,
            serve_fail_rate: rep.shed as f64 / rep.latency_s.len() as f64,
        };
        print!("{}", a.table("serve-mixed", &extra));
        out.metrics = a.metrics(&extra);
        keep(0, rep, &mut out);
        return out;
    }

    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut commit = Vec::new();
    let (mut answered, mut cpu) = (0u64, 0.0);
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let t_run = Instant::now();
    loop {
        let stream = commit.len() % STREAMS;
        // Whole cycles only: stop at the cycle boundary nearest to
        // `--seconds`, after at least one cycle.
        if stream == 0 && !commit.is_empty() {
            let (elapsed, cycles) = (secs(t_run), (commit.len() / STREAMS) as f64);
            if elapsed + 0.5 * elapsed / cycles >= opts.seconds {
                break;
            }
        }
        let Some(rep) = replayer.replay(stream, threads, &mut out) else {
            return out;
        };
        setups.push(rep.setup_s);
        latencies.extend_from_slice(&rep.latency_s);
        commit.push(rep.commit_s);
        answered += rep.answered;
        cpu += rep.cpu_s;
        walls.push(rep.wall_s);
        rss.push(rep.rss_mb);
        keep(stream, rep, &mut out);
    }
    for _ in 0..EXTRA_SETUPS {
        let t0 = Mark::now();
        let built = setup(inp, 0, threads);
        setups.push(t0.cpu());
        drop(built);
    }
    // Per-stream counts and modeled numbers, summed over the streams.
    let firsts: Vec<Replay> = firsts.into_iter().flatten().collect();
    let total = |f: fn(&Replay) -> u64| firsts.iter().map(f).sum::<u64>();
    let (requests, exact, shed) = (
        total(|r| r.latency_s.len() as u64),
        total(|r| r.exact),
        total(|r| r.shed),
    );
    let first_answered = total(|r| r.answered);
    let p50 = percentile(&latencies, 50.0);
    let (p95, q, beyond) = util::tail(&latencies, 95.0);
    println!(
        "serve-mixed: {} replays of {STREAMS} streams, {requests} requests per cycle \
         ({first_answered} answered: {exact} exact; {shed} shed), {} latency samples \
         (serve_p95_cpu_ms is p{q:.1}, {beyond} beyond it); fail_rate with sheds {:.4}; \
         median replay wall {:.6} s",
        commit.len(),
        latencies.len(),
        (out.failed as f64 + shed as f64) / requests as f64,
        median(&walls),
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("solve_cpu_s", median(&commit), "s");
    for (name, v) in [("serve_p50_cpu_ms", p50), ("serve_p95_cpu_ms", p95)] {
        if !v.is_finite() {
            out.check(Some(format!(
                "serve-mixed: {name} falls on shed or missing requests"
            )));
        }
        out.metric(name, if v.is_finite() { v * 1e3 } else { f64::MAX }, "ms");
    }
    out.metric("serve_cpu_rps", answered as f64 / cpu, "req/s");
    out.metric(
        "serve_exact_share",
        exact as f64 / first_answered as f64,
        "ratio",
    );
    out.metric(
        "modeled_makespan_s",
        firsts.iter().map(|r| r.modeled_s).sum::<f64>(),
        "s",
    );
    out.metric(
        "modeled_crit_bytes",
        total(|r| r.crit_bytes) as f64,
        "bytes",
    );
    out.metric("peak_rss_mb", median(&rss), "MB");
    out
}

/// Checks that a payload has the shape its query asked for.
fn payload_shape(r: &Response, q: &Query, n: usize) -> Option<String> {
    let ok = match (q, &r.payload) {
        (Query::TopK { k }, Payload::TopK(pairs)) => pairs.len() == (*k).min(n),
        (Query::Vertex { v }, Payload::Vertex { v: got, score }) => v == got && score.is_finite(),
        (Query::Full, Payload::Full(s)) => s.len() == n && s.iter().all(|x| x.is_finite()),
        _ => false,
    };
    (!ok).then(|| format!("id {}: payload does not match its query", r.id))
}
