//! Distributed sparse tensor (matrix) framework — the workspace's
//! Cyclops-Tensor-Framework analogue.
//!
//! The MFBC paper implements its algorithm on CTF, which distributes
//! sparse matrices over processor grids, redistributes them between
//! layouts, multiplies them with a communication-efficient suite of
//! 1D/2D/3D algorithms, and auto-selects the cheapest configuration
//! per operation (§5.2, §6.2). This crate rebuilds that stack on the
//! simulated machine of `mfbc-machine`:
//!
//! * [`grid`] — 1D/2D/3D processor grids and factorization search;
//! * [`dist`] — block [`Layout`]s and the distributed matrix
//!   [`DistMat`];
//! * [`redist`] — sparse redistribution (personalized all-to-all);
//! * [`mod@mm`] (with private 1D/2D/3D submodules and [`cannon`]) —
//!   the generalized multiplication algorithms over any
//!   [`SpMulKernel`](mfbc_algebra::SpMulKernel), behind the one entry
//!   point [`mm()`]: autotuned or fixed plan ([`Planning`]), optional
//!   mask and cache ([`MmOpts`]), product plus the plan that ran;
//! * [`costmodel`] — closed-form α–β–γ predictions per variant;
//! * [`autotune`] — plan enumeration + scoring.
//!
//! Every plan family has a single code path for both of the
//! machine's accountings: collectives are started with
//! `Machine::start_collective`, which charges them on the spot under
//! the paper's serialized accounting and leaves them in flight under
//! overlapped accounting. The plans' one-step lookahead is the only
//! place they consult the spec.

#![deny(missing_docs)]
#![deny(unsafe_code)]
// `vec![0..n]` block-range literals are the natural layout syntax
// here, and the internal piece/chunk tuples are contained.
#![allow(clippy::single_range_in_vec_init)]
#![allow(clippy::type_complexity)]

pub mod autotune;
pub mod cache;
pub mod cannon;
pub mod costmodel;
pub mod dist;
pub mod grid;
pub mod mm;
mod mm1d;
mod mm2d;
mod mm3d;
pub mod ops;
pub mod redist;

pub use autotune::{best_plan, stats_for_masked};
pub use cache::{CacheStats, MmCache};
pub use costmodel::MmStats;
pub use dist::{DistMat, Layout};
pub use grid::{Grid2, Grid3};
pub use mfbc_sparse::{Mask, MaskKind};
pub use mm::{
    canonical_layout, enumerate_plans, mm, MmOpts, MmOut, MmPlan, Planning, Variant1D, Variant2D,
    VARIANTS_1D, VARIANTS_2D,
};
pub use redist::redistribute;
