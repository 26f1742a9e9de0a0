//! Analytic communication-cost models for every MM variant (§5.2).
//!
//! The autotuner scores candidate plans with these closed-form
//! predictions — the same role CTF's linear cost models play (§6.2:
//! "CTF predicts the cost of communication routines, redistributions,
//! and blockwise operations based on linear cost models"). The
//! formulas mirror exactly what the executor charges, so a plan's
//! predicted cost tracks its charged cost; unit tests assert this
//! correspondence on concrete cases.

use crate::grid::lcm;
use crate::mm::{MmPlan, Variant1D, Variant2D};
use mfbc_machine::cost::log2_ceil;
use mfbc_machine::MachineSpec;

/// Problem statistics the models consume: shapes, nonzero counts, and
/// per-entry byte sizes of the three matrices (`C`'s count is an
/// estimate — §5.2's uniform model `nnz(C) ≈ min(mn, ops)` with
/// `ops ≈ nnz(A)·nnz(B)/k`).
#[derive(Clone, Copy, Debug)]
pub struct MmStats {
    /// Rows of A/C.
    pub m: u64,
    /// Columns of A / rows of B (contraction dimension).
    pub k: u64,
    /// Columns of B/C.
    pub n: u64,
    /// Stored entries of A.
    pub nnz_a: u64,
    /// Stored entries of B.
    pub nnz_b: u64,
    /// Estimated stored entries of C.
    pub nnz_c: u64,
    /// Estimated elementary products.
    pub ops: u64,
    /// Bytes per stored entry of A.
    pub eb_a: u64,
    /// Bytes per stored entry of B.
    pub eb_b: u64,
    /// Bytes per stored entry of C.
    pub eb_c: u64,
    /// Fraction of B that must move through a fresh right-hand
    /// redistribution (1D variant A on a cache miss, Cannon). An
    /// output mask leaves B entries in fully-excluded columns at
    /// home, so masked plans set this below 1; cached B forms are
    /// mask-independent and keep paying the full volume, which is
    /// what shifts the plan crossovers under masking.
    pub b_move_frac: f64,
}

impl MmStats {
    /// Builds stats from shapes and operand counts using the paper's
    /// uniform-sparsity estimates for `ops` and `nnz(C)`.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate(
        m: u64,
        k: u64,
        n: u64,
        nnz_a: u64,
        nnz_b: u64,
        eb_a: u64,
        eb_b: u64,
        eb_c: u64,
    ) -> MmStats {
        let ops = if k == 0 {
            0
        } else {
            ((nnz_a as f64) * (nnz_b as f64) / (k as f64)).ceil() as u64
        };
        let nnz_c = ops.min(m.saturating_mul(n));
        MmStats {
            m,
            k,
            n,
            nnz_a,
            nnz_b,
            nnz_c,
            ops,
            eb_a,
            eb_b,
            eb_c,
            b_move_frac: 1.0,
        }
    }

    /// Stats for the same multiplication under an output mask that
    /// admits `allowed_frac` of the output coordinates and keeps
    /// `b_kept_frac` of B's entries movable (entries outside fully
    /// masked-out columns). Under the uniform-sparsity model a mask
    /// thins elementary products and output entries proportionally.
    pub fn with_mask(&self, allowed_frac: f64, b_kept_frac: f64) -> MmStats {
        let f = allowed_frac.clamp(0.0, 1.0);
        let mut s = *self;
        s.ops = ((self.ops as f64) * f).ceil() as u64;
        s.nnz_c = ((self.nnz_c as f64) * f).ceil() as u64;
        s.b_move_frac = b_kept_frac.clamp(0.0, 1.0);
        s
    }
}

fn lg(x: usize) -> f64 {
    log2_ceil(x) as f64
}

/// Additive components of a plan's predicted time, kept apart so the
/// spec's execution mode decides how they stack:
///
/// * serialized — `redist + α + β + comp`: every term sits on the
///   critical path, the pre-overlap accounting;
/// * overlapped — `redist + α + max(β, comp)`: the superstep
///   pipelines issue the next panel transfer under the current
///   multiply, so bandwidth hides under compute (and vice versa)
///   while latency (the blocking issue edge) and the up-front
///   redistribution stay exposed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Terms {
    /// Operand redistribution time (mode-aware via [`redist_time`]).
    pub(crate) redist: f64,
    /// Superstep latency: α per collective issue, never hidden.
    pub(crate) alpha: f64,
    /// Superstep bandwidth: β volume of the pipelined panel moves.
    pub(crate) beta: f64,
    /// Per-rank compute: γ per elementary product and output entry.
    pub(crate) comp: f64,
}

impl Terms {
    /// Collapses the components under the spec's execution mode.
    pub(crate) fn combine(&self, spec: &MachineSpec) -> f64 {
        if spec.overlap {
            self.redist + self.alpha + self.beta.max(self.comp)
        } else {
            self.redist + self.alpha + self.beta + self.comp
        }
    }
}

/// Predicted wall-clock seconds for one operand redistribution of a
/// matrix with `bytes` total payload over `p` ranks, under the spec's
/// redistribution mode:
///
/// * `Alltoall` — `β·B/p + α·⌈lg p⌉` (the §6.2 baseline);
/// * `Auto` — the cheapest of the all-to-all and the two hybrids,
///   matching the executor's per-sender choice under uniform traffic:
///   pairwise sends `α·(p−1) + β·B/p` (a latency per destination,
///   only what each destination needs) and the broadcast closed form
///   `2β·B/p + 2α·⌈lg p⌉` on the per-sender volume.
pub(crate) fn redist_time(spec: &MachineSpec, p: usize, bytes: f64) -> f64 {
    if p <= 1 || bytes == 0.0 {
        return 0.0;
    }
    let per_sender = bytes / p as f64;
    let alltoall = spec.beta * per_sender + spec.alpha * lg(p);
    match spec.redist {
        mfbc_machine::RedistMode::Alltoall => alltoall,
        mfbc_machine::RedistMode::Auto => {
            let p2p = spec.alpha * (p - 1) as f64 + spec.beta * per_sender;
            let bcast = 2.0 * spec.beta * per_sender + 2.0 * spec.alpha * lg(p);
            p2p.min(bcast).min(alltoall)
        }
    }
}

/// Predicted cost components of a 2D variant on a `g1 × g2` grid with
/// the given (possibly layer-shrunk) stats.
fn terms_2d(spec: &MachineSpec, g1: usize, g2: usize, v: Variant2D, st: &MmStats) -> Terms {
    let p = g1 * g2;
    let s = lcm(g1, g2) as f64;
    let (ba, bb, bc) = (
        (st.nnz_a * st.eb_a) as f64,
        (st.nnz_b * st.eb_b) as f64,
        (st.nnz_c * st.eb_c) as f64,
    );
    let mut t = Terms {
        redist: redist_time(spec, p, ba) + redist_time(spec, p, bb),
        comp: spec.gamma * (st.ops + st.nnz_c) as f64 / p as f64,
        ..Terms::default()
    };
    if p > 1 {
        match v {
            Variant2D::AB => {
                t.beta = 2.0 * spec.beta * (ba / g1 as f64 + bb / g2 as f64);
                t.alpha = s * 2.0 * spec.alpha * (lg(g1) + lg(g2));
            }
            Variant2D::AC => {
                t.beta = 2.0 * spec.beta * ba / g1 as f64 + spec.beta * bc / g2 as f64;
                t.alpha = s * spec.alpha * (2.0 * lg(g2) + lg(g1));
            }
            Variant2D::BC => {
                t.beta = 2.0 * spec.beta * bb / g2 as f64 + spec.beta * bc / g1 as f64;
                t.alpha = s * spec.alpha * (2.0 * lg(g1) + lg(g2));
            }
        }
    }
    t
}

/// Predicted cost components of a 1D variant over `p` ranks.
fn terms_1d(spec: &MachineSpec, p: usize, v: Variant1D, st: &MmStats) -> Terms {
    let (ba, bb, bc) = (
        (st.nnz_a * st.eb_a) as f64,
        (st.nnz_b * st.eb_b) as f64,
        (st.nnz_c * st.eb_c) as f64,
    );
    let mut t = Terms {
        comp: spec.gamma * (st.ops + st.nnz_c) as f64 / p as f64,
        ..Terms::default()
    };
    if p > 1 {
        match v {
            // Variant A's B redistribution is the one 1D right-hand
            // move that may ship a mask-shrunk operand (the shrunk
            // form bypasses the cache), so only it sees the masked
            // shrink factor.
            Variant1D::A => {
                t.beta = spec.beta * ba;
                t.alpha = spec.alpha * lg(p);
                t.redist = redist_time(spec, p, bb * st.b_move_frac);
            }
            Variant1D::B => {
                t.beta = spec.beta * bb;
                t.alpha = spec.alpha * lg(p);
                t.redist = redist_time(spec, p, ba);
            }
            Variant1D::C => {
                t.redist = redist_time(spec, p, ba) + redist_time(spec, p, bb);
                t.beta = spec.beta * bc;
                t.alpha = spec.alpha * lg(p);
            }
        }
    }
    t
}

/// Shrinks stats for a layer of a 3D algorithm splitting matrix `X`.
fn layer_stats(st: &MmStats, split: Variant1D, p1: u64) -> MmStats {
    let mut s = *st;
    match split {
        Variant1D::A => {
            // B, C columns split.
            s.n = st.n.div_ceil(p1);
            s.nnz_b = st.nnz_b.div_ceil(p1);
            s.nnz_c = st.nnz_c.div_ceil(p1);
            s.ops = st.ops.div_ceil(p1);
        }
        Variant1D::B => {
            // A, C rows split.
            s.m = st.m.div_ceil(p1);
            s.nnz_a = st.nnz_a.div_ceil(p1);
            s.nnz_c = st.nnz_c.div_ceil(p1);
            s.ops = st.ops.div_ceil(p1);
        }
        Variant1D::C => {
            // Contraction dimension split; C stays full shape.
            s.k = st.k.div_ceil(p1);
            s.nnz_a = st.nnz_a.div_ceil(p1);
            s.nnz_b = st.nnz_b.div_ceil(p1);
            s.ops = st.ops.div_ceil(p1);
        }
    }
    s
}

/// Predicted execution time (seconds) of `plan` for `stats` on
/// `spec` — `W_MM` specialized to the plan.
pub fn predict(spec: &MachineSpec, plan: &MmPlan, st: &MmStats) -> f64 {
    match *plan {
        MmPlan::OneD(v) => terms_1d(spec, spec.p, v, st).combine(spec),
        MmPlan::TwoD { variant, p2, p3 } => terms_2d(spec, p2, p3, variant, st).combine(spec),
        MmPlan::Cannon { q } => crate::cannon::predict_cannon(spec, q, st),
        MmPlan::ThreeD {
            split,
            inner,
            p1,
            p2,
            p3,
        } => {
            let ls = layer_stats(st, split, p1 as u64);
            let mut t = terms_2d(spec, p2, p3, inner, &ls);
            // Fiber collectives of the 1D dimension: their bandwidth
            // joins the overlappable pool (the executor issues them
            // under the slice all-to-all / superstep compute), their
            // latency stays exposed.
            if p1 > 1 {
                match split {
                    Variant1D::A => {
                        t.beta += 2.0 * spec.beta * (st.nnz_a * st.eb_a) as f64 / (p2 * p3) as f64;
                        t.alpha += 2.0 * spec.alpha * lg(p1);
                    }
                    Variant1D::B => {
                        t.beta += 2.0 * spec.beta * (st.nnz_b * st.eb_b) as f64 / (p2 * p3) as f64;
                        t.alpha += 2.0 * spec.alpha * lg(p1);
                    }
                    Variant1D::C => {
                        t.beta += spec.beta * (st.nnz_c * st.eb_c) as f64 / (p2 * p3) as f64;
                        t.alpha += spec.alpha * lg(p1);
                    }
                }
            }
            t.combine(spec)
        }
    }
}

/// Rough per-rank resident bytes of `plan`, for memory-feasibility
/// filtering in the autotuner.
pub fn memory_per_rank(plan: &MmPlan, st: &MmStats, p: usize) -> u64 {
    let (ba, bb, bc) = (st.nnz_a * st.eb_a, st.nnz_b * st.eb_b, st.nnz_c * st.eb_c);
    let base = (ba + bb + bc) / p as u64 + 1;
    match *plan {
        MmPlan::OneD(Variant1D::A) => base + ba,
        MmPlan::OneD(Variant1D::B) => base + bb,
        MmPlan::OneD(Variant1D::C) => base + (st.ops * st.eb_c) / p as u64,
        MmPlan::TwoD { .. } | MmPlan::Cannon { .. } => base + ba / (p as u64) + bb / (p as u64),
        MmPlan::ThreeD { split, p2, p3, .. } => {
            let layer = (p2 * p3) as u64;
            base + match split {
                Variant1D::A => ba / layer,
                Variant1D::B => bb / layer,
                Variant1D::C => bc / layer,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> MmStats {
        MmStats::estimate(512, 10_000, 10_000, 5_000, 100_000, 12, 12, 20)
    }

    #[test]
    fn estimate_computes_ops_and_nnzc() {
        let st = stats();
        assert_eq!(st.ops, 50_000); // 5e3 * 1e5 / 1e4
        assert_eq!(st.nnz_c, 50_000);
        // nnz(C) capped at m·n.
        let tiny = MmStats::estimate(2, 10, 2, 100, 100, 8, 8, 8);
        assert_eq!(tiny.nnz_c, 4);
    }

    #[test]
    fn replicating_the_big_matrix_costs_more() {
        let spec = MachineSpec::test(16);
        let st = stats();
        let a = predict(&spec, &MmPlan::OneD(Variant1D::A), &st);
        let b = predict(&spec, &MmPlan::OneD(Variant1D::B), &st);
        // B is 20x denser than A: replicating it must be pricier.
        assert!(b > a, "replicate-B {b} should exceed replicate-A {a}");
    }

    #[test]
    fn twod_beats_oned_replication_for_large_matrices() {
        let spec = MachineSpec::test(16);
        let st = stats();
        let one = predict(&spec, &MmPlan::OneD(Variant1D::B), &st);
        let two = predict(
            &spec,
            &MmPlan::TwoD {
                variant: Variant2D::AB,
                p2: 4,
                p3: 4,
            },
            &st,
        );
        assert!(two < one);
    }

    #[test]
    fn replication_reduces_bandwidth_term() {
        // More layers (larger c) shrink per-layer operand volumes —
        // the mechanism behind Theorem 5.1's √(c) savings.
        let spec = MachineSpec {
            alpha: 0.0,
            ..MachineSpec::test(64)
        };
        let st = MmStats::estimate(64, 100_000, 100_000, 1_000_000, 1_000_000, 12, 12, 20);
        let flat = predict(
            &spec,
            &MmPlan::TwoD {
                variant: Variant2D::AC,
                p2: 8,
                p3: 8,
            },
            &st,
        );
        let replicated = predict(
            &spec,
            &MmPlan::ThreeD {
                split: Variant1D::B,
                inner: Variant2D::AC,
                p1: 4,
                p2: 4,
                p3: 4,
            },
            &st,
        );
        assert!(
            replicated < flat,
            "3D ({replicated}) should beat 2D ({flat}) on bandwidth"
        );
    }

    #[test]
    fn memory_model_flags_replication() {
        let st = stats();
        let m1 = memory_per_rank(&MmPlan::OneD(Variant1D::B), &st, 16);
        let m2 = memory_per_rank(
            &MmPlan::TwoD {
                variant: Variant2D::AB,
                p2: 4,
                p3: 4,
            },
            &st,
            16,
        );
        assert!(m1 > m2);
        assert!(m1 >= st.nnz_b * st.eb_b);
    }

    #[test]
    fn mask_thins_ops_and_output() {
        let st = stats();
        let masked = st.with_mask(0.25, 0.5);
        assert_eq!(masked.ops, st.ops / 4);
        assert_eq!(masked.nnz_c, st.nnz_c / 4);
        assert_eq!(masked.b_move_frac, 0.5);
        // Operand stats are untouched: the mask changes what is
        // produced and moved, not what exists.
        assert_eq!(masked.nnz_a, st.nnz_a);
        assert_eq!(masked.nnz_b, st.nnz_b);
    }

    #[test]
    fn b_move_frac_discounts_only_uncached_b_movers() {
        // Same output thinning, different movable-B fractions: only
        // variant A's uncached B redistribution (and Cannon) may see
        // the difference — variant B's cached replica stays
        // mask-independent, preserving Theorem 5.1's amortization.
        let spec = MachineSpec::test(16);
        let st = stats();
        let loose = st.with_mask(0.5, 1.0);
        let tight = st.with_mask(0.5, 0.1);
        let a_loose = predict(&spec, &MmPlan::OneD(Variant1D::A), &loose);
        let a_tight = predict(&spec, &MmPlan::OneD(Variant1D::A), &tight);
        assert!(a_tight < a_loose, "A: {a_tight} !< {a_loose}");
        let b_loose = predict(&spec, &MmPlan::OneD(Variant1D::B), &loose);
        let b_tight = predict(&spec, &MmPlan::OneD(Variant1D::B), &tight);
        assert_eq!(b_loose, b_tight);
        let q = MmPlan::Cannon { q: 4 };
        assert!(predict(&spec, &q, &tight) < predict(&spec, &q, &loose));
    }

    #[test]
    fn aggressive_mask_can_flip_the_plan_choice() {
        // A marginally denser than B: unmasked, replicating the
        // lighter B (variant B) edges out replicating A. A mask that
        // strands most of B at home discounts only variant A's
        // redistribution term, flipping the tuner's choice.
        let spec = MachineSpec::test(16);
        let st = MmStats::estimate(1000, 1000, 1000, 105_000, 100_000, 12, 12, 20);
        let va = MmPlan::OneD(Variant1D::A);
        let vb = MmPlan::OneD(Variant1D::B);
        assert!(predict(&spec, &vb, &st) < predict(&spec, &va, &st));
        let masked = st.with_mask(0.01, 0.01);
        assert!(predict(&spec, &va, &masked) < predict(&spec, &vb, &masked));
    }

    #[test]
    fn layer_stats_shrink_correctly() {
        let st = stats();
        let la = layer_stats(&st, Variant1D::A, 4);
        assert_eq!(la.nnz_b, st.nnz_b.div_ceil(4));
        assert_eq!(la.nnz_a, st.nnz_a);
        let lc = layer_stats(&st, Variant1D::C, 4);
        assert_eq!(lc.nnz_a, st.nnz_a.div_ceil(4));
        assert_eq!(lc.nnz_c, st.nnz_c);
    }
}
