//! Machine descriptions: rank counts and α–β–γ cost constants.

/// How redistribution traffic between block layouts is realized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedistMode {
    /// The paper's accounting: one personalized all-to-all charged by
    /// the maximum per-sender volume.
    Alltoall,
    /// Sparsity-driven hybrid: per source block, pick broadcast or
    /// targeted point-to-point sends by comparing their modeled costs
    /// on the block's actual byte volume and destination fan-out —
    /// or the all-to-all when it undercuts the whole hybrid schedule.
    Auto,
}

impl RedistMode {
    /// Stable lower-case name (the CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            RedistMode::Alltoall => "alltoall",
            RedistMode::Auto => "auto",
        }
    }

    /// Inverse of [`RedistMode::name`] (CLI flag parsing).
    pub fn from_name(name: &str) -> Option<RedistMode> {
        Some(match name {
            "alltoall" => RedistMode::Alltoall,
            "auto" => RedistMode::Auto,
            _ => return None,
        })
    }
}

/// Description of a simulated machine in the α–β model of §5.1,
/// extended with a compute rate γ and an optional per-rank memory
/// budget `M`.
///
/// Units: `alpha` seconds per message, `beta` seconds per byte,
/// `gamma` seconds per elementary operation (one kernel `f`/`⊕`
/// application), `mem_bytes` bytes. The paper assumes `α ≥ β`.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Number of processors (MPI ranks in the paper; one rank per
    /// node, as the paper benchmarks one MPI process per node).
    pub p: usize,
    /// Message latency α (s/message).
    pub alpha: f64,
    /// Inverse bandwidth β (s/byte).
    pub beta: f64,
    /// Compute rate γ (s/op).
    pub gamma: f64,
    /// Per-rank memory budget `M` in bytes; `None` disables the
    /// out-of-memory simulation.
    pub mem_bytes: Option<u64>,
    /// Whether collectives overlap with subsequent computation on the
    /// modeled clocks: an in-flight collective issued at its group's
    /// last synchronization completes at
    /// `max(ready + α, issue + dt)` instead of `ready + dt`, hiding
    /// its bandwidth term under local compute (the latency term stays
    /// on the critical path). `false` restores the paper's fully
    /// serialized accounting. Scores never depend on this flag — only
    /// the modeled clocks do.
    pub overlap: bool,
    /// How redistribution traffic is charged (see [`RedistMode`]).
    pub redist: RedistMode,
}

impl MachineSpec {
    /// A Cray-Gemini-class interconnect, mimicking the paper's Blue
    /// Waters XE6 testbed: α = 2 µs, ~6 GB/s effective per-node
    /// bandwidth, and a ~10 Gflop-equivalent effective rate for the
    /// irregular sparse kernels (measured sparse codes run far below
    /// peak). 64 GiB of memory per node, of which half is assumed
    /// usable for matrix data.
    pub fn gemini(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            alpha: 2.0e-6,
            beta: 1.0 / 6.0e9,
            gamma: 1.0e-9,
            mem_bytes: Some(32 * (1 << 30)),
            overlap: true,
            redist: RedistMode::Auto,
        }
    }

    /// A Cray-Aries (Dragonfly) class interconnect, mimicking the
    /// Edison/Piz Dora machines used for tuning: lower latency and
    /// higher bandwidth than Gemini.
    pub fn aries(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            alpha: 1.0e-6,
            beta: 1.0 / 10.0e9,
            gamma: 8.0e-10,
            mem_bytes: Some(32 * (1 << 30)),
            overlap: true,
            redist: RedistMode::Auto,
        }
    }

    /// A deliberately tiny, round-number spec for unit tests:
    /// α = 1, β = 1, γ = 1 (so costs equal message/byte/op counts),
    /// no memory budget, and the paper's serialized accounting
    /// (`overlap = false`, all-to-all redistribution) so hand-computed
    /// expectations stay simple.
    pub fn test(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            mem_bytes: None,
            overlap: false,
            redist: RedistMode::Alltoall,
        }
    }

    /// Scales the per-rank memory budget by `c` (used by benchmarks
    /// exploring the replication/memory trade-off of Theorem 5.1).
    pub fn with_mem_bytes(mut self, mem: Option<u64>) -> MachineSpec {
        self.mem_bytes = mem;
        self
    }

    /// Returns the spec with overlapped accounting switched on/off
    /// (the `--no-overlap` escape hatch).
    pub fn with_overlap(mut self, overlap: bool) -> MachineSpec {
        self.overlap = overlap;
        self
    }

    /// Returns the spec with the given redistribution mode.
    pub fn with_redist(mut self, redist: RedistMode) -> MachineSpec {
        self.redist = redist;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_satisfy_alpha_ge_beta() {
        for spec in [MachineSpec::gemini(16), MachineSpec::aries(16)] {
            assert!(spec.alpha >= spec.beta, "paper assumes α ≥ β");
            assert!(spec.gamma > 0.0);
            assert!(spec.mem_bytes.is_some());
        }
    }

    #[test]
    fn test_spec_is_unit() {
        let s = MachineSpec::test(8);
        assert_eq!((s.alpha, s.beta, s.gamma), (1.0, 1.0, 1.0));
        assert_eq!(s.mem_bytes, None);
        assert_eq!(s.p, 8);
        assert!(!s.overlap, "test spec keeps serialized accounting");
        assert_eq!(s.redist, RedistMode::Alltoall);
    }

    #[test]
    fn production_presets_default_to_overlap_and_hybrid() {
        for spec in [MachineSpec::gemini(4), MachineSpec::aries(4)] {
            assert!(spec.overlap);
            assert_eq!(spec.redist, RedistMode::Auto);
        }
        let s = MachineSpec::gemini(4)
            .with_overlap(false)
            .with_redist(RedistMode::Alltoall);
        assert!(!s.overlap);
        assert_eq!(s.redist, RedistMode::Alltoall);
    }

    #[test]
    fn redist_mode_names_roundtrip() {
        for m in [RedistMode::Alltoall, RedistMode::Auto] {
            assert_eq!(RedistMode::from_name(m.name()), Some(m));
        }
        for gone in ["bcast", "p2p", "carrier_pigeon"] {
            assert_eq!(RedistMode::from_name(gone), None);
        }
    }

    #[test]
    fn with_mem_bytes_overrides() {
        let s = MachineSpec::test(2).with_mem_bytes(Some(42));
        assert_eq!(s.mem_bytes, Some(42));
    }
}
