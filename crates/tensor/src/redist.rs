//! Sparse redistribution between block layouts.
//!
//! CTF transitions tensors between data distributions with dedicated
//! kernels and converts index–value pairs to CSR afterwards (§6.2).
//! This module implements the sparse-to-sparse redistribution: every
//! entry is re-bucketed to its destination block, the per-rank
//! payloads travel through a personalized all-to-all (charged on the
//! machine's critical path; entries that stay on their rank are
//! free), and destination blocks are rebuilt as CSR.

use crate::dist::{DistMat, Layout};
use mfbc_algebra::monoid::Monoid;
use mfbc_machine::cost::CollectiveKind;
use mfbc_machine::{Machine, MachineError, RedistMode};
use mfbc_sparse::{entry_bytes, Coo};

/// Moves `src` into `dst_layout`, combining duplicate coordinates
/// with `M` (layout cuts are disjoint so duplicates only arise if the
/// source itself had overlapping blocks, which [`DistMat`] forbids).
pub fn redistribute<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    dst_layout: &Layout,
) -> Result<DistMat<T>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    assert_eq!(
        src.nrows(),
        dst_layout.nrows(),
        "redistribute shape mismatch"
    );
    assert_eq!(
        src.ncols(),
        dst_layout.ncols(),
        "redistribute shape mismatch"
    );
    if src.layout().same_as(dst_layout) {
        return Ok(src.clone());
    }

    let p = m.p();
    // Per destination block: COO with block-local coordinates.
    let mut dst_coo: Vec<Coo<T>> = (0..dst_layout.br())
        .flat_map(|bi| (0..dst_layout.bc()).map(move |bj| (bi, bj)))
        .map(|(bi, bj)| {
            Coo::new(
                dst_layout.row_range(bi).len(),
                dst_layout.col_range(bj).len(),
            )
        })
        .collect();

    // Bytes leaving each source rank for each destination rank.
    let mut traffic = vec![vec![0u64; p]; p];
    let ebytes = entry_bytes::<T>() as u64;

    let sl = src.layout();
    for sbi in 0..sl.br() {
        let r0 = sl.row_range(sbi).start;
        for sbj in 0..sl.bc() {
            let c0 = sl.col_range(sbj).start;
            let src_rank = sl.owner(sbi, sbj);
            let block = src.block(sbi, sbj);
            for (i, j, v) in block.iter() {
                let (gi, gj) = (r0 + i, c0 + j);
                let dbi = dst_layout.find_row_block(gi);
                let dbj = dst_layout.find_col_block(gj);
                let dst_rank = dst_layout.owner(dbi, dbj);
                if dst_rank != src_rank {
                    traffic[src_rank][dst_rank] += ebytes;
                }
                dst_coo[dbi * dst_layout.bc() + dbj].push(
                    gi - dst_layout.row_range(dbi).start,
                    gj - dst_layout.col_range(dbj).start,
                    v.clone(),
                );
            }
        }
    }

    // Charge the movement over the ranks actually involved (senders
    // and receivers): a redistribution confined to a subset of ranks
    // — e.g. one layer of a 3D algorithm — must not synchronize the
    // others.
    charge_redist(
        m,
        &traffic,
        collect_owners(src.layout(), dst_layout),
        "redistribute",
    )?;

    let blocks = dst_coo.into_iter().map(|coo| coo.into_csr::<M>()).collect();
    Ok(DistMat::from_blocks(dst_layout.clone(), blocks))
}

/// Extracts the window `src[rows, cols]` into `dst_layout` (whose
/// shape must equal the window's), reindexed to the window origin.
/// Charged like [`redistribute`]: entries that change ranks travel in
/// a personalized all-to-all. Used by 3D algorithms to hand each
/// layer its slice of the split matrix.
pub fn extract_window<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    dst_layout: &Layout,
) -> Result<DistMat<T>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    assert_eq!(rows.len(), dst_layout.nrows(), "window height mismatch");
    assert_eq!(cols.len(), dst_layout.ncols(), "window width mismatch");
    assert!(
        rows.end <= src.nrows() && cols.end <= src.ncols(),
        "window out of bounds"
    );

    let p = m.p();
    let mut dst_coo: Vec<Coo<T>> = (0..dst_layout.br())
        .flat_map(|bi| (0..dst_layout.bc()).map(move |bj| (bi, bj)))
        .map(|(bi, bj)| {
            Coo::new(
                dst_layout.row_range(bi).len(),
                dst_layout.col_range(bj).len(),
            )
        })
        .collect();
    // True source→destination traffic: the hybrid redistribution
    // modes price each sender's fan-out from its per-destination
    // volumes (for the all-to-all charge only the row sums matter).
    let mut traffic = vec![vec![0u64; p]; p];
    let ebytes = entry_bytes::<T>() as u64;

    let sl = src.layout();
    for sbi in 0..sl.br() {
        let rr = sl.row_range(sbi);
        if rr.end <= rows.start || rr.start >= rows.end {
            continue;
        }
        for sbj in 0..sl.bc() {
            let cr = sl.col_range(sbj);
            if cr.end <= cols.start || cr.start >= cols.end {
                continue;
            }
            let src_rank = sl.owner(sbi, sbj);
            for (i, j, v) in src.block(sbi, sbj).iter() {
                let (gi, gj) = (rr.start + i, cr.start + j);
                if !rows.contains(&gi) || !cols.contains(&gj) {
                    continue;
                }
                let (wi, wj) = (gi - rows.start, gj - cols.start);
                let dbi = dst_layout.find_row_block(wi);
                let dbj = dst_layout.find_col_block(wj);
                let dst_rank = dst_layout.owner(dbi, dbj);
                if dst_rank != src_rank {
                    traffic[src_rank][dst_rank] += ebytes;
                }
                dst_coo[dbi * dst_layout.bc() + dbj].push(
                    wi - dst_layout.row_range(dbi).start,
                    wj - dst_layout.col_range(dbj).start,
                    v.clone(),
                );
            }
        }
    }
    charge_redist(
        m,
        &traffic,
        collect_owners(src.layout(), dst_layout),
        "window",
    )?;
    let blocks = dst_coo.into_iter().map(|c| c.into_csr::<M>()).collect();
    Ok(DistMat::from_blocks(dst_layout.clone(), blocks))
}

/// Union of the owner ranks of two layouts, ascending.
fn collect_owners(a: &Layout, b: &Layout) -> Vec<usize> {
    let mut ranks: Vec<usize> = (0..a.br())
        .flat_map(|bi| (0..a.bc()).map(move |bj| (bi, bj)))
        .map(|(bi, bj)| a.owner(bi, bj))
        .chain(
            (0..b.br())
                .flat_map(|bi| (0..b.bc()).map(move |bj| (bi, bj)))
                .map(|(bi, bj)| b.owner(bi, bj)),
        )
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// Charges the movement described by `traffic` (true source→destination
/// byte counts, diagonal-free) according to the machine's
/// redistribution mode and emits one
/// [`mfbc_trace::TraceEvent::Redist`] labeled `what` with the total
/// bytes that changed owner.
///
/// * [`RedistMode::Alltoall`] — the §6.2 baseline: one personalized
///   all-to-all over `participants`, charged with the largest
///   per-sender volume.
/// * [`RedistMode::Auto`] — per sender, the cheaper under the spec's
///   α and β of one point-to-point message per destination
///   (`k·α + β·b` for `k` destinations sending `b` bytes total; wins
///   when block sparsity leaves a sender few destinations) and one
///   broadcast over the sender and its destinations
///   (`2β·b + 2⌈lg(k+1)⌉·α`; fewer latency hits on a wide fan-out),
///   decided from the actual per-block nnz the traffic matrix
///   records — *unless* the traffic is dense enough that the single
///   amortized all-to-all undercuts the whole hybrid schedule, in
///   which case Auto falls back to it. The comparison sums the
///   per-sender hybrid costs (senders whose groups share ranks
///   serialize on the machine, so the sum is the conservative
///   estimate) against the all-to-all's closed form on the largest
///   per-sender volume.
fn charge_redist(
    m: &Machine,
    traffic: &[Vec<u64>],
    participants: Vec<usize>,
    what: &'static str,
) -> Result<(), MachineError> {
    let total: u64 = traffic.iter().map(|row| row.iter().sum::<u64>()).sum();
    if total == 0 || participants.len() <= 1 {
        return Ok(());
    }
    let nparticipants = participants.len();
    let spec = m.spec();
    let max_send = traffic
        .iter()
        .map(|row| row.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    // Each sender's destinations, walked in ascending rank and
    // destination order so the schedule (and hence the modeled
    // clocks) is deterministic.
    let dests = |r: usize| {
        traffic[r]
            .iter()
            .enumerate()
            .filter(move |&(d, &b)| d != r && b > 0)
            .map(|(d, &b)| (d, b))
    };
    // Per sending rank: total volume and the modeled pairwise and
    // broadcast times of its fan-out.
    let fanouts: Vec<(usize, u64, f64, f64)> = (0..traffic.len())
        .filter_map(|r| {
            let k = dests(r).count();
            if k == 0 {
                return None;
            }
            let b_r: u64 = dests(r).map(|(_, b)| b).sum();
            let p2p_t = spec.beta * b_r as f64 + k as f64 * spec.alpha;
            let bcast_t = CollectiveKind::Broadcast.time(spec, k + 1, b_r);
            Some((r, b_r, p2p_t, bcast_t))
        })
        .collect();
    let alltoall = spec.redist == RedistMode::Alltoall || {
        let alltoall_t = CollectiveKind::AllToAll.time(spec, nparticipants, max_send);
        let hybrid_t: f64 = fanouts.iter().map(|f| f.2.min(f.3)).sum();
        alltoall_t <= hybrid_t
    };
    if alltoall {
        let group = mfbc_machine::Group::new(participants)
            .expect("owner union is non-empty and deduplicated");
        m.charge_collective(&group, CollectiveKind::AllToAll, max_send)?;
    } else {
        for (r, b_r, p2p_t, bcast_t) in fanouts {
            if bcast_t <= p2p_t {
                let mut ranks: Vec<usize> = dests(r).map(|(d, _)| d).collect();
                ranks.push(r);
                ranks.sort_unstable();
                let group =
                    mfbc_machine::Group::new(ranks).expect("sender plus destinations is non-empty");
                m.charge_collective(&group, CollectiveKind::Broadcast, b_r)?;
            } else {
                for (d, b) in dests(r) {
                    let mut pair = vec![r, d];
                    pair.sort_unstable();
                    let group = mfbc_machine::Group::new(pair)
                        .expect("sender–destination pair is non-empty");
                    m.charge_collective(&group, CollectiveKind::PointToPoint, b)?;
                }
            }
        }
    }
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Redist {
        what,
        bytes_moved: total,
        participants: nparticipants,
    });
    Ok(())
}

/// Extracts several windows of `src` in one pass, moving all of them
/// through a *single* personalized all-to-all — what a real
/// implementation does when slicing a matrix across the layers of a
/// 3D algorithm (per-layer extraction would serialize the layers on
/// the critical path).
pub fn extract_windows<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    specs: &[(std::ops::Range<usize>, std::ops::Range<usize>, Layout)],
) -> Result<Vec<DistMat<T>>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let p = m.p();
    let mut traffic = vec![vec![0u64; p]; p];
    let ebytes = entry_bytes::<T>() as u64;
    let mut outputs: Vec<Vec<Coo<T>>> = Vec::with_capacity(specs.len());
    let mut participants: Vec<usize> = Vec::new();
    for (rows, cols, dst_layout) in specs {
        assert_eq!(rows.len(), dst_layout.nrows(), "window height mismatch");
        assert_eq!(cols.len(), dst_layout.ncols(), "window width mismatch");
        assert!(
            rows.end <= src.nrows() && cols.end <= src.ncols(),
            "window out of bounds"
        );
        outputs.push(
            (0..dst_layout.br())
                .flat_map(|bi| (0..dst_layout.bc()).map(move |bj| (bi, bj)))
                .map(|(bi, bj)| {
                    Coo::new(
                        dst_layout.row_range(bi).len(),
                        dst_layout.col_range(bj).len(),
                    )
                })
                .collect(),
        );
        participants.extend(collect_owners(src.layout(), dst_layout));
    }
    participants.sort_unstable();
    participants.dedup();

    let sl = src.layout();
    for sbi in 0..sl.br() {
        let rr = sl.row_range(sbi);
        for sbj in 0..sl.bc() {
            let cr = sl.col_range(sbj);
            let src_rank = sl.owner(sbi, sbj);
            for (i, j, v) in src.block(sbi, sbj).iter() {
                let (gi, gj) = (rr.start + i, cr.start + j);
                for (w, (rows, cols, dst_layout)) in specs.iter().enumerate() {
                    if !rows.contains(&gi) || !cols.contains(&gj) {
                        continue;
                    }
                    let (wi, wj) = (gi - rows.start, gj - cols.start);
                    let dbi = dst_layout.find_row_block(wi);
                    let dbj = dst_layout.find_col_block(wj);
                    if dst_layout.owner(dbi, dbj) != src_rank {
                        traffic[src_rank][dst_layout.owner(dbi, dbj)] += ebytes;
                    }
                    outputs[w][dbi * dst_layout.bc() + dbj].push(
                        wi - dst_layout.row_range(dbi).start,
                        wj - dst_layout.col_range(dbj).start,
                        v.clone(),
                    );
                }
            }
        }
    }
    charge_redist(m, &traffic, participants, "windows")?;
    Ok(outputs
        .into_iter()
        .zip(specs)
        .map(|(coos, (_, _, dst_layout))| {
            DistMat::from_blocks(
                dst_layout.clone(),
                coos.into_iter().map(|c| c.into_csr::<M>()).collect(),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;
    use mfbc_algebra::monoid::SumU64;
    use mfbc_machine::{Group, MachineSpec};
    use mfbc_sparse::Csr;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineSpec::test(p))
    }

    fn sample() -> Csr<u64> {
        Coo::from_triples(
            6,
            6,
            (0..6).flat_map(|i| [(i, (i + 1) % 6, (10 + i) as u64), (i, i, (1 + i) as u64)]),
        )
        .into_csr::<SumU64>()
    }

    #[test]
    fn redistribution_preserves_contents() {
        let m = machine(4);
        let g = sample();
        let src_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 4, 1).unwrap());
        let src = DistMat::from_global(src_layout, &g);
        let dst = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert_eq!(dst.to_global::<SumU64>(), g);
        assert!(dst.layout().same_as(&dst_layout));
    }

    #[test]
    fn redistribution_charges_traffic() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 1, 4).unwrap());
        let _ = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert!(m.report().critical.bytes > 0);
    }

    #[test]
    fn same_layout_is_free() {
        let m = machine(4);
        let g = sample();
        let layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let src = DistMat::from_global(layout.clone(), &g);
        let dst = redistribute::<SumU64, _>(&m, &src, &layout).unwrap();
        assert_eq!(dst.to_global::<SumU64>(), g);
        assert_eq!(m.report().critical.bytes, 0);
        assert_eq!(m.report().critical.msgs, 0);
    }

    #[test]
    fn extract_window_preserves_window() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(3, 4, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let w = extract_window::<SumU64, _>(&m, &src, 2..5, 1..5, &dst_layout).unwrap();
        let wg = w.to_global::<SumU64>();
        assert_eq!(wg, mfbc_sparse::slice::slice(&g, 2..5, 1..5));
    }

    #[test]
    fn extract_full_window_equals_redistribute() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 4, 1).unwrap());
        let a = extract_window::<SumU64, _>(&m, &src, 0..6, 0..6, &dst_layout).unwrap();
        let b = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert_eq!(a.to_global::<SumU64>(), b.to_global::<SumU64>());
    }

    #[test]
    fn to_single_rank() {
        let m = machine(2);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(2), 1, 2).unwrap()),
            &g,
        );
        let dst = redistribute::<SumU64, _>(&m, &src, &Layout::single(6, 6, 0)).unwrap();
        assert_eq!(dst.block(0, 0), &g);
    }
}
