//! Small helpers shared by the workloads: sample statistics, the FNV
//! digest of score vectors, peak-RSS reading, and the result record
//! every run prints.

use std::time::Instant;

/// How a workload runs, from the command line.
pub struct Opts {
    /// Seconds the timed loop measures.
    pub seconds: f64,
    /// Pool participants.
    pub threads: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The output broken on purpose (`flip-score`, `drop-response`).
    pub mutate: Option<String>,
    /// Where the traced run writes its span tree.
    pub spans_out: Option<String>,
}

impl Opts {
    pub fn mutates(&self, m: &str) -> bool {
        self.mutate.as_deref() == Some(m)
    }

    /// Writes the traced run's span tree, one JSON object per line.
    pub fn write_spans(&self, lines: &[String]) -> Option<String> {
        let path = self.spans_out.as_ref()?;
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
            .err()
            .map(|e| format!("writing spans to {path}: {e}"))
    }
}

/// One named metric with its unit, as printed in the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and how many of its checked operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation; `err` is its failure, if any.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `xs`; infinite samples (shed
/// requests) sort last.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// Samples the reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail statistic reported as `serve_p95_cpu_ms`: the nearest-rank
/// percentile `q`, lowered to the highest percentile that still leaves
/// [`TAIL_BEYOND`] samples beyond it, and never below the median.
/// Returns the value, the percentile used, and the samples beyond it.
pub fn tail(xs: &[f64], q: f64) -> (f64, f64, usize) {
    let n = xs.len();
    let supported = 100.0 * n.saturating_sub(TAIL_BEYOND) as f64 / n as f64;
    let q = q.min(supported).max(50.0);
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    (percentile(xs, q).max(median(xs)), q, n - rank)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

// Linux's `struct timespec` on 64-bit targets, for `clock_gettime`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock is read through the 64-bit Linux clock_gettime ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, all threads together.
///
/// The timed metrics read this clock rather than the wall clock. A
/// thread waiting for the CPU (another process, or a hypervisor that
/// took the virtual CPU: Linux guests with paravirtual steal-time
/// accounting leave stolen time out) does not advance it, so it counts
/// the work the program did and not how busy the host was.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A start mark on both clocks.
#[derive(Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: f64,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// Wall seconds since the mark.
    pub fn wall(&self) -> f64 {
        secs(self.wall)
    }

    /// Process CPU seconds since the mark.
    pub fn cpu(&self) -> f64 {
        cpu_now() - self.cpu
    }
}

/// FNV-1a over the bit patterns of `xs`: the committed score digest.
pub fn digest(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether two score vectors are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Resets the process's peak-RSS mark (Linux `clear_refs`), so the
/// next [`peak_rss_mb`] covers only what ran since. Where that is
/// unsupported the mark keeps the whole process's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", mfbc_profile::jsonio::esc(s))
}
