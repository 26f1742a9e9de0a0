//! Attribution of one traced run's wall time to the repository's
//! layers.
//!
//! The traced run installs a `MemoryRecorder` through
//! `mfbc_trace::scoped`. The benchmark opens `bench:` spans around each
//! call it makes into a layer; the program already emits its own spans
//! (`batch N`, `batchK/forward|backward`, `mm_auto`, `spgemm <plan>`)
//! and `Pool` events carrying each fan-out's per-participant busy time.
//! Every event lands on the benchmark's thread: the recorder is
//! thread-scoped and the pool reports from the calling thread.
//!
//! The spans form one tree under `bench:run`. A `Pool` event becomes a
//! leaf that ends at its timestamp and lasts its busiest participant's
//! time, clipped so it starts no earlier than its parent or its
//! previous sibling. A node's self time is its duration minus its
//! children's, so the self times of all nodes sum to the root's
//! duration; the reconciliation table prints what is left over as its
//! own row.

use crate::util::{json_str, Metric};
use mfbc_trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Bytes per stored sparse entry used for `sparse.computed_bytes`: an
/// 8-byte column index plus an 8-byte payload. Computed from nnz
/// counts, not measured.
pub const ENTRY_BYTES: u64 = 16;

/// Largest |wall − Σ self| the reconciliation accepts, as a share of
/// the traced wall time measured around the whole traced run.
pub const RESIDUAL_SHARE: f64 = 0.01;

/// The rows of the reconciliation table, in print order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Graph,
    Core,
    Autotune,
    MmOutside,
    Elementwise,
    Sparse,
    Serve,
    Check,
    Bench,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Graph => "graph (Graph build)",
            Layer::Core => "core (session, step, driver)",
            Layer::Autotune => "tensor.autotune (mm_auto self)",
            Layer::MmOutside => "tensor.mm outside kernel",
            Layer::Elementwise => "tensor.elementwise (dmat_* busy)",
            Layer::Sparse => "sparse (spgemm kernel busy)",
            Layer::Serve => "serve (wire, admission, drain)",
            Layer::Check => "bench.check (output checks)",
            Layer::Bench => "remainder (harness, no layer call)",
        }
    }

    fn of_span(name: &str) -> Layer {
        let base = name.split(' ').next().unwrap_or(name);
        if base.starts_with("bench:graph.") {
            Layer::Graph
        } else if base.starts_with("bench:core.") || base.starts_with("batch") {
            Layer::Core
        } else if base.starts_with("bench:serve.") {
            Layer::Serve
        } else if base == "bench:check" {
            Layer::Check
        } else if base == "mm_auto" {
            Layer::Autotune
        } else if base == "spgemm" {
            Layer::MmOutside
        } else {
            Layer::Bench
        }
    }
}

struct Node {
    name: String,
    layer: Layer,
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// End of the latest child so far (clips synthetic pool leaves).
    last_child_end: u64,
    /// Rung and store versions seen inside a serve drain span.
    rung: Option<&'static str>,
    versions: Option<(u64, u64)>,
}

/// Everything the traced run's stream says about the layers.
#[derive(Default)]
pub struct Analysis {
    pub events: u64,
    /// Self seconds and node count per layer.
    pub rows: BTreeMap<Layer, (f64, u64)>,
    pub step_s: Vec<f64>,
    pub mm_s: f64,
    pub mm_calls: u64,
    pub kernel_busy_s: BTreeMap<&'static str, f64>,
    pub spgemm_calls: u64,
    pub spgemm_ops: u64,
    /// Local block multiplies inside `spgemm <plan>` spans: one per
    /// `Compute` charge there. A multiply ran on the pool when a `Pool`
    /// spgemm event came just before its charge; one with fewer rows
    /// than the kernel's parallel threshold, or on a one-thread pool,
    /// runs serially and emits no `Pool` event.
    pub local_mm: u64,
    pub serial_mm: u64,
    /// Upper bound on the serial multiplies' time: for each, the gap
    /// from the previous trace event to its charge.
    pub serial_upper_s: f64,
    /// Charged ops (kernel ops plus output entries, what γ prices) and
    /// busiest-participant time of the pool-run multiplies.
    pub pooled_charged_ops: u64,
    pub pooled_busy_s: f64,
    pub spgemm_entries: u64,
    pub redist_calls: u64,
    pub redist_bytes: u64,
    pub pool_tasks: u64,
    pub pool_max_busy_us: u64,
    pub pool_mean_busy_us: f64,
    pub collectives: u64,
    pub compute_charges: u64,
    pub total_ops: u64,
    pub supersteps: u64,
    pub frontier_nnz: u64,
    pub parse_s: Vec<f64>,
    pub submit_s: Vec<f64>,
    pub render_s: Vec<f64>,
    pub queue_wait_s: Vec<f64>,
    /// Drain seconds per round class (`exact`, `approx`, `stale`,
    /// `complete`).
    pub drain_s: BTreeMap<&'static str, f64>,
    pub rounds: u64,
    pub coalesced: u64,
    pub approx_k_total: u64,
    /// The span tree, one JSON object per node.
    pub spans: Vec<String>,
}

fn attr<'a>(name: &'a str, key: &str) -> Option<&'a str> {
    name.split(' ')
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Builds the span tree of one traced run and folds its events.
pub fn analyze(records: &[TraceRecord]) -> Analysis {
    let mut a = Analysis {
        events: records.len() as u64,
        ..Analysis::default()
    };
    let mut nodes: Vec<Node> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut submit_end: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_ts = records.first().map_or(0, |r| r.ts_us);
    // Busiest participant of a `Pool` spgemm event that is the record
    // just before this one.
    let mut pooled_before: Option<u64> = None;
    for rec in records {
        let ts = rec.ts_us;
        let top = stack.last().copied();
        let pooled = pooled_before.take();
        match &rec.event {
            TraceEvent::SpanBegin { name } => {
                nodes.push(Node {
                    name: name.clone(),
                    layer: Layer::of_span(name),
                    start: ts,
                    end: ts,
                    parent: top,
                    last_child_end: ts,
                    rung: None,
                    versions: None,
                });
                stack.push(nodes.len() - 1);
            }
            TraceEvent::SpanEnd { name } => {
                while let Some(i) = stack.pop() {
                    nodes[i].end = ts;
                    if let Some(p) = nodes[i].parent {
                        nodes[p].last_child_end = nodes[p].last_child_end.max(ts);
                    }
                    if nodes[i].name == *name {
                        break;
                    }
                }
            }
            TraceEvent::Pool {
                kernel,
                threads,
                tasks,
                busy_us,
                ..
            } => {
                let max = busy_us.iter().copied().max().unwrap_or(0);
                a.pool_tasks += tasks;
                if *threads > 1 && !busy_us.is_empty() {
                    a.pool_max_busy_us += max;
                    a.pool_mean_busy_us +=
                        busy_us.iter().sum::<u64>() as f64 / busy_us.len() as f64;
                }
                *a.kernel_busy_s.entry(kernel).or_default() += max as f64 * 1e-6;
                if *kernel == "spgemm" {
                    a.spgemm_calls += 1;
                    pooled_before = Some(max);
                }
                let floor = top.map_or(0, |p| nodes[p].last_child_end.max(nodes[p].start));
                let start = ts.saturating_sub(max).max(floor).min(ts);
                nodes.push(Node {
                    name: format!("pool:{kernel}"),
                    layer: if *kernel == "spgemm" {
                        Layer::Sparse
                    } else {
                        Layer::Elementwise
                    },
                    start,
                    end: ts,
                    parent: top,
                    last_child_end: ts,
                    rung: None,
                    versions: None,
                });
                if let Some(p) = top {
                    nodes[p].last_child_end = ts;
                }
            }
            TraceEvent::Spgemm {
                nnz_a,
                nnz_b,
                nnz_c,
                ops,
                ..
            } => {
                a.spgemm_ops += ops;
                a.spgemm_entries += nnz_a + nnz_b + nnz_c;
            }
            TraceEvent::Redist { bytes_moved, .. } => {
                a.redist_calls += 1;
                a.redist_bytes += bytes_moved;
            }
            TraceEvent::Collective { .. } | TraceEvent::CollectiveIssue { .. } => {
                a.collectives += 1;
            }
            TraceEvent::Compute { ops, .. } => {
                a.compute_charges += 1;
                a.total_ops += ops;
                if stack.iter().any(|&i| nodes[i].name.starts_with("spgemm ")) {
                    a.local_mm += 1;
                    match pooled {
                        Some(busy_us) => {
                            a.pooled_charged_ops += ops;
                            a.pooled_busy_s += busy_us as f64 * 1e-6;
                        }
                        None => {
                            a.serial_mm += 1;
                            a.serial_upper_s += ts.saturating_sub(last_ts) as f64 * 1e-6;
                        }
                    }
                }
            }
            TraceEvent::Superstep {
                phase,
                frontier_nnz,
                ..
            } => {
                a.supersteps += 1;
                if *phase == "forward" {
                    a.frontier_nnz += frontier_nnz;
                }
            }
            TraceEvent::RoundStart {
                requests,
                store_version,
                ..
            } => {
                a.rounds += 1;
                a.coalesced += requests;
                if let Some(d) = drain_of(&nodes, &stack) {
                    nodes[d].versions = Some((*store_version, *store_version));
                }
            }
            TraceEvent::DegradeDecision { rung, approx_k, .. } => {
                a.approx_k_total += approx_k;
                if let Some(d) = drain_of(&nodes, &stack) {
                    nodes[d].rung = Some(rung);
                }
            }
            TraceEvent::RoundEnd { store_version, .. } => {
                if let Some(d) = drain_of(&nodes, &stack) {
                    if let Some(v) = &mut nodes[d].versions {
                        v.1 = *store_version;
                    }
                }
            }
            _ => {}
        }
        last_ts = ts;
    }

    let mut child_us = vec![0u64; nodes.len()];
    for n in &nodes {
        if let Some(p) = n.parent {
            child_us[p] += n.end - n.start;
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        let dur = n.end - n.start;
        let mut line = format!(
            "{{\"id\":{i},\"name\":{},\"layer\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{},\"parent\":{}",
            json_str(&n.name),
            json_str(n.layer.label()),
            n.start,
            n.end,
            dur.saturating_sub(child_us[i]),
            n.parent.map_or("null".to_string(), |p| p.to_string())
        );
        for key in ["req", "round"] {
            if let Some(v) = attr(&n.name, key) {
                line.push_str(&format!(",\"{key}\":{v}"));
            }
        }
        line.push('}');
        a.spans.push(line);
        let row = a.rows.entry(n.layer).or_default();
        row.0 += dur.saturating_sub(child_us[i]) as f64 * 1e-6;
        row.1 += 1;
        let d = dur as f64 * 1e-6;
        let base = n.name.split(' ').next().unwrap_or("");
        match base {
            "batch" => a.step_s.push(d),
            "spgemm" => {
                a.mm_s += d;
                a.mm_calls += 1;
            }
            "bench:serve.parse" => a.parse_s.push(d),
            "bench:serve.submit" => {
                a.submit_s.push(d);
                if let Some(id) = attr(&n.name, "req").and_then(|v| v.parse().ok()) {
                    submit_end.insert(id, n.end);
                }
            }
            "bench:serve.render" => a.render_s.push(d),
            "bench:serve.drain" => {
                let class = match (n.rung, n.versions) {
                    (_, Some((v0, v1))) if v1 > v0 => "exact",
                    (Some("exact"), _) => "complete",
                    (Some("approx"), _) => "approx",
                    _ => "stale",
                };
                *a.drain_s.entry(class).or_default() += d;
            }
            _ => {}
        }
    }
    // Queue wait: from a request's submit returning to the start of the
    // drain round that answered it.
    let drain_start: BTreeMap<u64, u64> = nodes
        .iter()
        .filter(|n| n.name.starts_with("bench:serve.drain "))
        .filter_map(|n| Some((attr(&n.name, "round")?.parse().ok()?, n.start)))
        .collect();
    for n in nodes
        .iter()
        .filter(|n| n.name.starts_with("bench:serve.render "))
    {
        let req = attr(&n.name, "req").and_then(|v| v.parse::<u64>().ok());
        let round = attr(&n.name, "round").and_then(|v| v.parse::<u64>().ok());
        if let (Some(t0), Some(t1)) = (
            req.and_then(|r| submit_end.get(&r)),
            round.and_then(|r| drain_start.get(&r)),
        ) {
            a.queue_wait_s.push(t1.saturating_sub(*t0) as f64 * 1e-6);
        }
    }
    a
}

/// The innermost open serve drain span, if any.
fn drain_of(nodes: &[Node], stack: &[usize]) -> Option<usize> {
    stack
        .iter()
        .rev()
        .copied()
        .find(|&i| nodes[i].name.starts_with("bench:serve.drain "))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

impl Analysis {
    fn self_s(&self, l: Layer) -> f64 {
        self.rows.get(&l).map_or(0.0, |r| r.0)
    }

    /// `wall_s` (measured around the traced run, not taken from the
    /// trace) minus the self times of every row: what the span tree
    /// failed to account for.
    pub fn residual_s(&self, wall_s: f64) -> f64 {
        wall_s - self.rows.values().map(|r| r.0).sum::<f64>()
    }

    pub fn busy(&self, kernel: &str) -> f64 {
        self.kernel_busy_s.get(kernel).copied().unwrap_or(0.0)
    }

    pub fn elementwise_s(&self) -> f64 {
        self.kernel_busy_s
            .iter()
            .filter(|(k, _)| **k != "spgemm")
            .map(|(_, v)| v)
            .sum()
    }

    /// The reconciliation table: layer, self time, node count, share of
    /// the traced wall time, then the residual, the observer cost, and
    /// the layers that have counts only.
    pub fn table(&self, workload: &str, extra: &Extra) -> String {
        let (wall_s, overhead_s) = (extra.wall_s, extra.overhead_s);
        let mut out = format!(
            "reconciliation {workload}: traced wall {wall_s:.6} s, {} trace events\n",
            self.events
        );
        out.push_str(&format!(
            "  {:<36} {:>10} {:>8} {:>7}\n",
            "layer", "self_s", "count", "share"
        ));
        let share = |s: f64| {
            if wall_s > 0.0 {
                100.0 * s / wall_s
            } else {
                0.0
            }
        };
        for (layer, (s, c)) in &self.rows {
            out.push_str(&format!(
                "  {:<36} {:>10.6} {:>8} {:>6.2}%\n",
                layer.label(),
                s,
                c,
                share(*s)
            ));
        }
        let r = self.residual_s(wall_s);
        out.push_str(&format!(
            "  {:<36} {:>10.6} {:>8} {:>6.2}%  (stated bound ±{:.0}%)\n",
            "residual (wall − Σ rows)",
            r,
            "-",
            share(r),
            RESIDUAL_SHARE * 100.0
        ));
        out.push_str(&format!(
            "  {:<36} {:>10.6} {:>8} {:>6.2}%  (inside the rows above)\n",
            "trace.overhead_s (traced − untraced)",
            overhead_s,
            "-",
            share(overhead_s)
        ));
        out.push_str(&format!(
            "  machine: {} collectives, {} compute charges, {} ops (its wall time sits in tensor.mm and core)\n",
            self.collectives, self.compute_charges, self.total_ops
        ));
        out.push_str(&format!(
            "  parallel: {} tasks, imbalance {:.3} (max/mean participant busy)\n",
            self.pool_tasks,
            self.imbalance()
        ));
        out.push_str(&format!(
            "  sparse: {} local multiplies, {} ({:.1}%) serial without a Pool event; \
             their time, at most {:.6} s, sits in tensor.mm outside kernel\n",
            self.local_mm,
            self.serial_mm,
            100.0 * self.serial_share(),
            self.serial_upper_s
        ));
        let tensor_s = self.self_s(Layer::Elementwise) + self.self_s(Layer::MmOutside);
        let sparse_s = self.self_s(Layer::Sparse);
        out.push_str(&format!(
            "  shares with serial multiplies counted either way: tensor (elementwise + mm outside \
             kernel) {:.2}%..{:.2}%, sparse kernel {:.2}%..{:.2}%\n",
            share(tensor_s - self.serial_upper_s),
            share(tensor_s),
            share(sparse_s),
            share(sparse_s + self.serial_upper_s)
        ));
        if self.pooled_busy_s > 0.0 {
            out.push_str(&format!(
                "  sparse: {:.4e} charged ops/s in pool-run multiplies vs spec 1/γ = {:.4e} ops/s (not gated)\n",
                self.ops_per_s(),
                extra.spec_ops_per_s
            ));
        } else {
            out.push_str(
                "  sparse: no multiply ran on the pool; kernel time and rate unmeasured (read 0)\n",
            );
        }
        out
    }

    /// Charged operations per second of busiest-participant time, over
    /// the multiplies that ran on the pool only; 0 when none did.
    fn ops_per_s(&self) -> f64 {
        if self.pooled_busy_s > 0.0 {
            self.pooled_charged_ops as f64 / self.pooled_busy_s
        } else {
            0.0
        }
    }

    /// Share of local multiplies that ran serially, outside the pool.
    fn serial_share(&self) -> f64 {
        if self.local_mm > 0 {
            self.serial_mm as f64 / self.local_mm as f64
        } else {
            0.0
        }
    }

    pub fn imbalance(&self) -> f64 {
        if self.pool_mean_busy_us > 0.0 {
            self.pool_max_busy_us as f64 / self.pool_mean_busy_us
        } else {
            0.0
        }
    }

    /// The per-layer metrics every traced run prints. `extra` supplies
    /// what the stream does not carry (cache stats, machine report,
    /// observer overhead); layers a workload never enters read 0.
    pub fn metrics(&self, extra: &Extra) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let drain = |k: &str| self.drain_s.get(k).copied().unwrap_or(0.0);
        let spgemm_busy = self.busy("spgemm");
        vec![
            m("core.step_s", mean(&self.step_s), "s"),
            m("core.self_s", self.self_s(Layer::Core), "s"),
            m("core.supersteps", self.supersteps as f64, "count"),
            m("core.frontier_nnz", self.frontier_nnz as f64, "count"),
            m("tensor.mm_s", self.mm_s, "s"),
            m(
                "tensor.mm_outside_kernel_s",
                self.self_s(Layer::MmOutside),
                "s",
            ),
            m("tensor.autotune_s", self.self_s(Layer::Autotune), "s"),
            m("tensor.mm_calls", self.mm_calls as f64, "count"),
            m("tensor.mm_cache_hit_ratio", extra.cache_hit_ratio, "ratio"),
            m("tensor.dmat_zip_s", self.busy("dmat_zip"), "s"),
            m("tensor.dmat_map_s", self.busy("dmat_map"), "s"),
            m("tensor.dmat_anchored_s", self.busy("dmat_anchored"), "s"),
            m("tensor.dmat_combine_s", self.busy("dmat_combine"), "s"),
            m("tensor.elementwise_s", self.elementwise_s(), "s"),
            m("tensor.redist_calls", self.redist_calls as f64, "count"),
            m("tensor.redist_bytes", self.redist_bytes as f64, "bytes"),
            m("sparse.spgemm_busy_s", spgemm_busy, "s"),
            m("sparse.spgemm_calls", self.spgemm_calls as f64, "count"),
            m("sparse.spgemm_ops", self.spgemm_ops as f64, "ops"),
            m(
                "sparse.computed_bytes",
                (self.spgemm_entries * ENTRY_BYTES) as f64,
                "bytes",
            ),
            m("sparse.ops_per_s", self.ops_per_s(), "1/s"),
            m("sparse.serial_share", self.serial_share(), "ratio"),
            m("sparse.serial_upper_s", self.serial_upper_s, "s"),
            m("parallel.tasks", self.pool_tasks as f64, "count"),
            m("parallel.imbalance", self.imbalance(), "ratio"),
            m("machine.collectives", self.collectives as f64, "count"),
            m(
                "machine.compute_charges",
                self.compute_charges as f64,
                "count",
            ),
            m("machine.crit_msgs", extra.crit_msgs as f64, "count"),
            m("machine.total_ops", self.total_ops as f64, "ops"),
            m("serve.parse_us", mean(&self.parse_s) * 1e6, "us"),
            m("serve.submit_us", mean(&self.submit_s) * 1e6, "us"),
            m("serve.render_us", mean(&self.render_s) * 1e6, "us"),
            m("serve.queue_wait_ms", mean(&self.queue_wait_s) * 1e3, "ms"),
            m("serve.drain_exact_s", drain("exact"), "s"),
            m("serve.drain_approx_s", drain("approx"), "s"),
            m("serve.drain_stale_s", drain("stale"), "s"),
            m("serve.drain_complete_s", drain("complete"), "s"),
            m("serve.rounds", self.rounds as f64, "count"),
            m(
                "serve.coalesced",
                if self.rounds > 0 {
                    self.coalesced as f64 / self.rounds as f64
                } else {
                    0.0
                },
                "count",
            ),
            m("serve.approx_k_total", self.approx_k_total as f64, "count"),
            m("serve.fail_rate", extra.serve_fail_rate, "ratio"),
            m("trace.events", self.events as f64, "count"),
            m("trace.overhead_s", extra.overhead_s, "s"),
            m("trace.residual_s", self.residual_s(extra.wall_s), "s"),
        ]
    }
}

/// Per-layer inputs the trace stream does not carry.
pub struct Extra {
    /// Wall seconds measured around the whole traced run.
    pub wall_s: f64,
    /// The simulated machine's compute rate, 1/γ.
    pub spec_ops_per_s: f64,
    pub cache_hit_ratio: f64,
    pub crit_msgs: u64,
    pub overhead_s: f64,
    pub serve_fail_rate: f64,
}
