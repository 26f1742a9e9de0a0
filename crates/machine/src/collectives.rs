//! Typed, data-moving collective operations.
//!
//! The tensor layer drives distributed algorithms from a "global
//! view": a distributed object is a `Vec` with one element per group
//! member, and a collective both *moves the data* between those
//! slots and charges the α–β cost to every participant's critical
//! path. Because the data movement is real, a mis-specified
//! communication pattern produces wrong results, not merely wrong
//! cost numbers — the property that makes this simulation a faithful
//! substitute for MPI executions.
//!
//! Replicated payloads travel as `Arc<T>`: within one address space a
//! broadcast is semantically "everyone holds the same immutable
//! value", which `Arc` models without multiplying resident memory
//! (the *simulated* memory meter still charges each rank separately
//! via the tensor layer).

use crate::comm::Group;
use crate::cost::CollectiveKind;
use crate::{Machine, MachineError};
use std::sync::Arc;

/// Types that know their wire size in bytes.
pub trait Volume {
    /// Bytes this value would occupy in a message.
    fn comm_bytes(&self) -> u64;
}

impl Volume for () {
    fn comm_bytes(&self) -> u64 {
        0
    }
}

impl<T: Volume> Volume for Arc<T> {
    fn comm_bytes(&self) -> u64 {
        (**self).comm_bytes()
    }
}

impl<T: Volume> Volume for &T {
    fn comm_bytes(&self) -> u64 {
        (**self).comm_bytes()
    }
}

impl<A: Volume, B: Volume> Volume for (A, B) {
    fn comm_bytes(&self) -> u64 {
        self.0.comm_bytes() + self.1.comm_bytes()
    }
}

impl<T: Volume> Volume for Vec<T> {
    fn comm_bytes(&self) -> u64 {
        self.iter().map(Volume::comm_bytes).sum()
    }
}

impl<T: Volume> Volume for Option<T> {
    fn comm_bytes(&self) -> u64 {
        self.as_ref().map_or(0, Volume::comm_bytes)
    }
}

macro_rules! pod_volume {
    ($($t:ty),*) => {$(
        impl Volume for $t {
            fn comm_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}

pod_volume!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T> Volume for mfbc_sparse::Csr<T> {
    fn comm_bytes(&self) -> u64 {
        self.payload_bytes() as u64
    }
}

impl<T> Volume for mfbc_sparse::Coo<T> {
    fn comm_bytes(&self) -> u64 {
        (self.len() * (mfbc_sparse::entry_bytes::<T>() + std::mem::size_of::<mfbc_sparse::Idx>()))
            as u64
    }
}

/// The result of a collective started with
/// [`Machine::start_collective`]: the delivered buffers plus, under
/// overlapped accounting, the machine handle that must be waited on
/// before they may be used.
///
/// The simulated data movement happens eagerly at issue (the simulated
/// wire is in-process), so the *values* are already here — but using
/// them before the machine has waited out the handle would let an
/// algorithm consume data whose modeled transfer has not completed.
/// [`Pending::wait`] is the honest path: it completes the collective
/// on the machine's clocks and releases the buffers.
/// [`Pending::take`] releases the buffers only if the handle has
/// already been waited (e.g. via [`Machine::waitall`]), returning a
/// typed [`MachineError::OutstandingCollective`] otherwise.
#[derive(Debug)]
pub struct Pending<T> {
    value: T,
    handle: Option<u64>,
}

impl<T> Pending<T> {
    /// Wraps an already-complete value (nothing in flight, e.g. a
    /// cache hit).
    pub fn ready(value: T) -> Pending<T> {
        Pending::new(value, None)
    }

    /// Pairs a value with the handle [`Machine::start_collective`]
    /// returned for the collective that moved it: `Some` when it is
    /// still in flight (overlapped accounting), `None` when it was
    /// charged on the spot.
    pub fn new(value: T, handle: Option<u64>) -> Pending<T> {
        Pending { value, handle }
    }

    /// The machine handle, if a collective is actually in flight.
    pub fn handle(&self) -> Option<u64> {
        self.handle
    }

    /// Waits out the collective on `m`'s clocks and releases the
    /// delivered buffers.
    pub fn wait(self, m: &Machine) -> Result<T, MachineError> {
        if let Some(h) = self.handle {
            m.wait_collective(h)?;
        }
        Ok(self.value)
    }

    /// Releases the buffers *without* waiting — valid only once the
    /// handle has been completed elsewhere (e.g. [`Machine::waitall`]).
    /// Using a buffer whose collective is still outstanding is a typed
    /// [`MachineError::OutstandingCollective`].
    pub fn take(self, m: &Machine) -> Result<T, MachineError> {
        if let Some(h) = self.handle {
            if m.is_outstanding(h) {
                return Err(MachineError::OutstandingCollective {
                    kind: m
                        .outstanding_kind(h)
                        .map(CollectiveKind::name)
                        .unwrap_or("collective"),
                    handle: h,
                });
            }
        }
        Ok(self.value)
    }
}

/// Broadcast: the payload at group index `root` is replicated to
/// every member. Returns one handle per member, in group order.
pub fn broadcast<T: Volume>(
    m: &Machine,
    g: &Group,
    root: usize,
    data: Arc<T>,
) -> Result<Vec<Arc<T>>, MachineError> {
    assert!(root < g.len(), "broadcast root outside group");
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Broadcast, data.comm_bytes())?;
    }
    Ok((0..g.len()).map(|_| Arc::clone(&data)).collect())
}

/// Reduce: combines one contribution per member into a single value
/// delivered at the root. `combine` must be associative and
/// commutative; contributions are folded in group order so results
/// are deterministic.
pub fn reduce<T: Volume>(
    m: &Machine,
    g: &Group,
    contribs: Vec<T>,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<T, MachineError> {
    assert_eq!(contribs.len(), g.len(), "one contribution per member");
    let bytes = contribs.iter().map(Volume::comm_bytes).max().unwrap_or(0);
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Reduce, bytes)?;
    }
    let mut it = contribs.into_iter();
    let first = it.next().expect("group is non-empty");
    Ok(it.fold(first, &mut combine))
}

/// Sparse reduce: like [`reduce`] but charged by the *result* size
/// (§5.1: "the cost of a sparse reduction where the resulting array
/// has x nonzeros is also O(β·x + α·log p)").
pub fn sparse_reduce<T: Volume>(
    m: &Machine,
    g: &Group,
    contribs: Vec<T>,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<T, MachineError> {
    assert_eq!(contribs.len(), g.len(), "one contribution per member");
    let mut it = contribs.into_iter();
    let first = it.next().expect("group is non-empty");
    let result = it.fold(first, &mut combine);
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::SparseReduce, result.comm_bytes())?;
    }
    Ok(result)
}

/// Allreduce: every member ends with the combined value.
pub fn allreduce<T: Volume>(
    m: &Machine,
    g: &Group,
    contribs: Vec<T>,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<Vec<Arc<T>>, MachineError> {
    assert_eq!(contribs.len(), g.len(), "one contribution per member");
    let bytes = contribs.iter().map(Volume::comm_bytes).max().unwrap_or(0);
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Allreduce, bytes)?;
    }
    let mut it = contribs.into_iter();
    let first = it.next().expect("group is non-empty");
    let result = Arc::new(it.fold(first, &mut combine));
    Ok((0..g.len()).map(|_| Arc::clone(&result)).collect())
}

/// Allgather: every member ends with all members' pieces (in group
/// order), shared behind one `Arc`.
pub fn allgather<T: Volume>(
    m: &Machine,
    g: &Group,
    parts: Vec<T>,
) -> Result<Vec<Arc<Vec<T>>>, MachineError> {
    assert_eq!(parts.len(), g.len(), "one piece per member");
    let bytes = parts.comm_bytes();
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Allgather, bytes)?;
    }
    let all = Arc::new(parts);
    Ok((0..g.len()).map(|_| Arc::clone(&all)).collect())
}

/// Gather: all pieces end at the root, in group order.
pub fn gather<T: Volume>(m: &Machine, g: &Group, parts: Vec<T>) -> Result<Vec<T>, MachineError> {
    assert_eq!(parts.len(), g.len(), "one piece per member");
    let bytes = parts.comm_bytes();
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Gather, bytes)?;
    }
    Ok(parts)
}

/// Scatter: the root's pieces are delivered one per member.
pub fn scatter<T: Volume>(m: &Machine, g: &Group, parts: Vec<T>) -> Result<Vec<T>, MachineError> {
    assert_eq!(parts.len(), g.len(), "one piece per member");
    let bytes = parts.comm_bytes();
    if g.len() > 1 {
        m.charge_collective(g, CollectiveKind::Scatter, bytes)?;
    }
    Ok(parts)
}

/// Cyclic shift by `k` positions (Cannon-style point-to-point): the
/// piece at group index `i` moves to index `(i + k) mod p`.
pub fn shift<T: Volume>(
    m: &Machine,
    g: &Group,
    mut parts: Vec<T>,
    k: usize,
) -> Result<Vec<T>, MachineError> {
    assert_eq!(parts.len(), g.len(), "one piece per member");
    let p = g.len();
    if p > 1 && !k.is_multiple_of(p) {
        let bytes = parts.iter().map(Volume::comm_bytes).max().unwrap_or(0);
        m.charge_collective(g, CollectiveKind::PointToPoint, bytes)?;
        parts.rotate_right(k % p);
    }
    Ok(parts)
}

/// Personalized all-to-all: `send[i][j]` is the payload member `i`
/// sends to member `j`; the result `recv[j][i]` delivers it. Charged
/// by the largest per-member send volume.
pub fn all_to_all<T: Volume>(
    m: &Machine,
    g: &Group,
    send: Vec<Vec<T>>,
) -> Result<Vec<Vec<T>>, MachineError> {
    let p = g.len();
    assert_eq!(send.len(), p, "one send row per member");
    for row in &send {
        assert_eq!(row.len(), p, "one payload per destination");
    }
    if p > 1 {
        let bytes = send.iter().map(|row| row.comm_bytes()).max().unwrap_or(0);
        m.charge_collective(g, CollectiveKind::AllToAll, bytes)?;
    }
    // Transpose the send matrix into receive buffers.
    let mut recv: Vec<Vec<T>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for row in send.into_iter() {
        for (j, payload) in row.into_iter().enumerate() {
            recv[j].push(payload);
        }
    }
    Ok(recv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineSpec;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineSpec::test(p))
    }

    #[test]
    fn broadcast_replicates_and_charges() {
        let m = machine(4);
        let g = m.world();
        let out = broadcast(&m, &g, 0, Arc::new(vec![1u64, 2, 3])).unwrap();
        assert_eq!(out.len(), 4);
        for o in &out {
            assert_eq!(**o, vec![1, 2, 3]);
        }
        let r = m.report();
        assert_eq!(r.critical.bytes, 2 * 24);
    }

    #[test]
    fn reduce_folds_in_group_order() {
        let m = machine(3);
        let g = m.world();
        let out = reduce(&m, &g, vec![vec![1u64], vec![2], vec![3]], |mut a, b| {
            a.extend(b);
            a
        })
        .unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn sparse_reduce_charges_result_size() {
        let m = machine(4);
        let g = m.world();
        // Contributions of 8 bytes each, result of 8 bytes (u64 sum).
        let _ = sparse_reduce(&m, &g, vec![1u64, 2, 3, 4], |a, b| a + b).unwrap();
        let r = m.report();
        assert_eq!(r.critical.bytes, 8);
    }

    #[test]
    fn allgather_shares_all_pieces() {
        let m = machine(3);
        let g = m.world();
        let out = allgather(&m, &g, vec![10u64, 20, 30]).unwrap();
        assert_eq!(*out[1], vec![10, 20, 30]);
        assert_eq!(m.report().critical.bytes, 24);
    }

    #[test]
    fn shift_rotates() {
        let m = machine(4);
        let g = m.world();
        let out = shift(&m, &g, vec![0u64, 1, 2, 3], 1).unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
        assert_eq!(m.report().critical.msgs, 1);
        // k = 0 is free.
        m.reset_meters();
        let out = shift(&m, &g, out, 0).unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
        assert_eq!(m.report().critical.msgs, 0);
    }

    #[test]
    fn all_to_all_transposes() {
        let m = machine(2);
        let g = m.world();
        // payload value r*10+c encodes (sender, receiver)
        let send = vec![vec![0u64, 1], vec![10, 11]];
        let recv = all_to_all(&m, &g, send).unwrap();
        assert_eq!(recv, vec![vec![0, 10], vec![1, 11]]);
    }

    #[test]
    fn singleton_group_collectives_are_free() {
        let m = machine(1);
        let g = m.world();
        let _ = broadcast(&m, &g, 0, Arc::new(7u64)).unwrap();
        let _ = reduce(&m, &g, vec![7u64], |a, _| a).unwrap();
        let _ = allgather(&m, &g, vec![7u64]).unwrap();
        assert_eq!(m.report().critical.msgs, 0);
        assert_eq!(m.report().critical.bytes, 0);
    }

    #[test]
    fn pending_take_before_wait_is_a_typed_error() {
        let m = Machine::new(MachineSpec::test(4).with_overlap(true));
        let g = m.world();
        let start = || {
            let h = m
                .start_collective(&g, CollectiveKind::Allgather, 32)
                .unwrap();
            Pending::new(vec![10u64, 20, 30, 40], h)
        };
        let pending = start();
        let h = pending.handle().unwrap();
        // Using the buffer with the handle outstanding is refused.
        let err = pending.take(&m).unwrap_err();
        assert_eq!(
            err,
            MachineError::OutstandingCollective {
                kind: "allgather",
                handle: h,
            }
        );
        // After waitall the (re-issued) buffer is released.
        let pending = start();
        m.waitall().unwrap();
        assert_eq!(pending.take(&m).unwrap(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn csr_volume_counts_payload() {
        use mfbc_algebra::monoid::SumU64;
        let c = mfbc_sparse::Coo::from_triples(2, 2, vec![(0usize, 0usize, 1u64), (1, 1, 2)])
            .into_csr::<SumU64>();
        // 2 entries × (8-byte value + 4-byte index)
        assert_eq!(c.comm_bytes(), 24);
    }
}
