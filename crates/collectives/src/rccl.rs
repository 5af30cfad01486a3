//! The RCCL-like communicator.
//!
//! Mirrors how the paper's RCCL-tests runs operate: one CPU thread per GPU,
//! one communicator over N GCDs, collectives executed as topology-aware
//! chunked rings of GPU-kernel transfers.

use crate::exec::{run_collective, BcastAlgo, CollectiveCall};
use crate::ring::{build_ring, Ring};
use crate::schedule::{Collective, RankBuffers};
use crate::transport::Transport;
use ifsim_des::Dur;
use ifsim_hip::{HipError, HipResult, HipSim};
use ifsim_topology::{GcdId, RoutePolicy};

/// RCCL's broadcast pipeline granularity (1 MiB of f32s). At the paper's
/// 1 MiB message size this admits no pipelining — the whole message
/// store-and-forwards around the ring, which is why broadcast is the one
/// collective where MPI beats RCCL (Fig. 11). All-to-all collectives chunk
/// by rank count instead and pipeline far better.
pub const RCCL_PIPE_ELEMS: usize = (1024 * 1024) / 4;

/// Below this message size, Reduce/Broadcast/AllReduce switch to binomial
/// **tree** schedules (2·⌈log₂ n⌉ rounds of the full message) instead of
/// rings (2(n−1) rounds) — RCCL's real latency-vs-bandwidth algorithm
/// switch. At the paper's 1 MiB measurements the ring is always selected.
pub const RCCL_TREE_THRESHOLD_BYTES: u64 = 64 * 1024;

/// An RCCL communicator over a set of visible devices.
pub struct RcclComm {
    devices: Vec<usize>,
    ring: Ring,
    /// `position_of[rank]` = ring position of that rank.
    position_of: Vec<usize>,
}

impl RcclComm {
    /// Create a communicator (`ncclCommInitAll`): enables peer access among
    /// members and takes the ring of the topology search (for the full node,
    /// the one the runtime's router keeps; see [`build_ring`]).
    pub fn new(hip: &mut HipSim, devices: Vec<usize>) -> HipResult<RcclComm> {
        let gcds = crate::connect_members(hip, &devices)?;
        let (ring, position_of) = ring_over(hip, &gcds);
        Ok(RcclComm {
            devices,
            ring,
            position_of,
        })
    }

    /// Re-run the ring topology search over the current (health-aware)
    /// routes — the recovery step after fabric faults. The rebuilt ring
    /// stops using downed links wherever any detour exists; a full-node
    /// communicator picks a fresh all-direct Hamiltonian cycle when one
    /// survives. If link failures have partitioned the members, returns
    /// [`HipError::LinkDown`] and leaves the communicator unchanged.
    pub fn rebuild(&mut self, hip: &HipSim) -> HipResult<()> {
        let gcds: Vec<GcdId> = self
            .devices
            .iter()
            .map(|&d| hip.gcd_of(d))
            .collect::<HipResult<_>>()?;
        for &a in &gcds {
            for &b in &gcds {
                if a != b
                    && hip
                        .router()
                        .try_gcd_route(a, b, RoutePolicy::MaxBandwidth)
                        .is_none()
                {
                    return Err(HipError::LinkDown(format!(
                        "cannot rebuild ring: {a} and {b} are partitioned"
                    )));
                }
            }
        }
        (self.ring, self.position_of) = ring_over(hip, &gcds);
        Ok(())
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.devices.len()
    }

    /// The communicator's ring (GCD order).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Ring position of a rank.
    pub fn position_of_rank(&self, rank: usize) -> usize {
        self.position_of[rank]
    }

    /// Member devices in rank order.
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }

    /// Run one collective. `bufs` are indexed by *rank*; `elems` is the
    /// vector length in f32 elements (buffer contract in
    /// [`run_collective`]). Returns the call's wall-clock latency.
    pub fn collective(
        &self,
        hip: &mut HipSim,
        coll: Collective,
        bufs: &RankBuffers,
        elems: usize,
        root_rank: usize,
    ) -> HipResult<Dur> {
        let pos_bufs = self.position_indexed(bufs);
        let small = (elems as u64 * 4) <= RCCL_TREE_THRESHOLD_BYTES;
        let tree_eligible = matches!(
            coll,
            Collective::Reduce | Collective::Broadcast | Collective::AllReduce
        );
        if small && tree_eligible {
            return self.tree_collective(hip, coll, &pos_bufs, elems, self.position_of[root_rank]);
        }
        let call = CollectiveCall {
            ring: &self.ring,
            transport: Transport::Rccl,
            setup: hip.calib().rccl_launch_overhead,
            bcast: BcastAlgo::PipelinedRing {
                pipe_elems: RCCL_PIPE_ELEMS,
            },
            root_pos: self.position_of[root_rank],
        };
        run_collective(hip, &call, coll, &pos_bufs, elems)
    }

    /// Latency-optimized binomial-tree path for small messages.
    fn tree_collective(
        &self,
        hip: &mut HipSim,
        coll: Collective,
        pos_bufs: &RankBuffers,
        elems: usize,
        root_pos: usize,
    ) -> HipResult<Dur> {
        use crate::schedule as sched;
        let n = self.ring.len();
        // Prefill mirrors the ring executor's contract.
        match coll {
            Collective::Broadcast => {
                hip.mem_mut().copy(
                    pos_bufs.send[root_pos],
                    0,
                    pos_bufs.recv[root_pos],
                    0,
                    elems as u64 * 4,
                )?;
            }
            _ => {
                for p in 0..n {
                    hip.mem_mut().copy(
                        pos_bufs.send[p],
                        0,
                        pos_bufs.recv[p],
                        0,
                        elems as u64 * 4,
                    )?;
                }
            }
        }
        let rounds = match coll {
            Collective::Reduce => {
                sched::binomial_reduce_rounds(&self.ring, pos_bufs, elems, root_pos)
            }
            Collective::Broadcast => {
                sched::binomial_broadcast_rounds(&self.ring, pos_bufs, elems, root_pos)
            }
            Collective::AllReduce => {
                let mut r = sched::binomial_reduce_rounds(&self.ring, pos_bufs, elems, root_pos);
                r.extend(sched::binomial_broadcast_rounds(
                    &self.ring, pos_bufs, elems, root_pos,
                ));
                r
            }
            _ => unreachable!("only rooted + allreduce take the tree path"),
        };
        crate::exec::run_rounds(
            hip,
            &self.ring,
            Transport::Rccl,
            hip.calib().rccl_launch_overhead,
            &rounds,
        )
    }

    /// `ncclAllToAll`-style pairwise exchange (extension beyond the paper's
    /// five collectives). Block `d` of each rank's send buffer lands in the
    /// receiver's slot indexed by the sender's ring position. Requires
    /// `elems % n == 0`.
    pub fn all_to_all(
        &self,
        hip: &mut HipSim,
        bufs: &RankBuffers,
        elems: usize,
    ) -> HipResult<ifsim_des::Dur> {
        let pos_bufs = self.position_indexed(bufs);
        // Own block moves locally (free relative to fabric time).
        let n = self.ring.len();
        let block = elems / n;
        for p in 0..n {
            hip.mem_mut().copy(
                pos_bufs.send[p],
                (p * block) as u64 * 4,
                pos_bufs.recv[p],
                (p * block) as u64 * 4,
                block as u64 * 4,
            )?;
        }
        let rounds = crate::schedule::pairwise_alltoall_rounds(&self.ring, &pos_bufs, elems);
        crate::exec::run_rounds(
            hip,
            &self.ring,
            Transport::Rccl,
            hip.calib().rccl_launch_overhead,
            &rounds,
        )
    }

    fn position_indexed(&self, bufs: &RankBuffers) -> RankBuffers {
        let n = self.devices.len();
        assert_eq!(bufs.send.len(), n);
        assert_eq!(bufs.recv.len(), n);
        let mut send = vec![bufs.send[0]; n];
        let mut recv = vec![bufs.recv[0]; n];
        for rank in 0..n {
            send[self.position_of[rank]] = bufs.send[rank];
            recv[self.position_of[rank]] = bufs.recv[rank];
        }
        RankBuffers { send, recv }
    }
}

/// The ring over the members' GCDs (in rank order) on the runtime's current
/// routes, and each rank's position in it.
fn ring_over(hip: &HipSim, gcds: &[GcdId]) -> (Ring, Vec<usize>) {
    let ring = build_ring(hip.topo(), hip.router(), gcds);
    let position_of = gcds
        .iter()
        .map(|g| ring.order.iter().position(|x| x == g).expect("member"))
        .collect();
    (ring, position_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_hip::EnvConfig;

    /// Allocate per-rank send/recv buffers with send[r] filled with (r+1).
    fn setup(n: usize, elems: usize) -> (HipSim, RcclComm, RankBuffers) {
        let mut hip = HipSim::new(EnvConfig::default());
        let comm = RcclComm::new(&mut hip, (0..n).collect()).unwrap();
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for r in 0..n {
            hip.set_device(r).unwrap();
            let s = hip.malloc(elems as u64 * 4).unwrap();
            let d = hip.malloc(elems as u64 * 4).unwrap();
            hip.mem_mut()
                .write_f32s(s, 0, &vec![(r + 1) as f32; elems])
                .unwrap();
            send.push(s);
            recv.push(d);
        }
        (hip, comm, RankBuffers { send, recv })
    }

    #[test]
    fn allreduce_sums_across_all_ranks() {
        for n in [2usize, 3, 8] {
            let elems = 64;
            let (mut hip, comm, bufs) = setup(n, elems);
            comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
                .unwrap();
            let expect = (n * (n + 1) / 2) as f32;
            for r in 0..n {
                let v = hip
                    .mem()
                    .read_f32s(bufs.recv[r], 0, elems)
                    .unwrap()
                    .unwrap();
                assert_eq!(v, vec![expect; elems], "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn reduce_collects_the_sum_at_root() {
        let n = 4;
        let elems = 32;
        let (mut hip, comm, bufs) = setup(n, elems);
        comm.collective(&mut hip, Collective::Reduce, &bufs, elems, 2)
            .unwrap();
        let v = hip
            .mem()
            .read_f32s(bufs.recv[2], 0, elems)
            .unwrap()
            .unwrap();
        assert_eq!(v, vec![10.0; elems]);
    }

    #[test]
    fn broadcast_distributes_roots_data() {
        let n = 8;
        let elems = RCCL_PIPE_ELEMS / 8; // force a single pipeline chunk
        let (mut hip, comm, bufs) = setup(n, elems);
        comm.collective(&mut hip, Collective::Broadcast, &bufs, elems, 3)
            .unwrap();
        for r in 0..n {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            assert_eq!(v, vec![4.0; elems], "rank {r}");
        }
    }

    #[test]
    fn reduce_scatter_reduces_each_ranks_chunk() {
        let n = 4;
        let elems = 64;
        let (mut hip, comm, bufs) = setup(n, elems);
        comm.collective(&mut hip, Collective::ReduceScatter, &bufs, elems, 0)
            .unwrap();
        // Position p owns chunk (p+1) % n, fully reduced.
        for r in 0..n {
            let p = comm.position_of_rank(r);
            let c = (p + 1) % n;
            let (off, len) = crate::schedule::chunk_bounds(elems, n, c);
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], off as u64 * 4, len)
                .unwrap()
                .unwrap();
            assert_eq!(v, vec![10.0; len], "rank {r} chunk {c}");
        }
    }

    #[test]
    fn allgather_assembles_all_chunks_everywhere() {
        let n = 4;
        let elems = 64;
        let (mut hip, comm, bufs) = setup(n, elems);
        comm.collective(&mut hip, Collective::AllGather, &bufs, elems, 0)
            .unwrap();
        // Chunk p of the output holds the contribution of the rank at ring
        // position p.
        for r in 0..n {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            for p in 0..n {
                let contributor = (0..n).find(|&x| comm.position_of_rank(x) == p).unwrap();
                let (off, len) = crate::schedule::chunk_bounds(elems, n, p);
                assert_eq!(
                    &v[off..off + len],
                    vec![(contributor + 1) as f32; len].as_slice(),
                    "rank {r}, chunk {p}"
                );
            }
        }
    }

    #[test]
    fn two_rank_allreduce_latency_is_near_the_papers_lower_bound() {
        // Paper §VI: dual-round collectives have a 17.4 µs lower bound and
        // RCCL's two-thread results sit close to it at 1 MiB.
        let elems = (1usize << 20) / 4;
        let (mut hip, comm, bufs) = setup(2, elems);
        hip.mem_mut().set_phantom_threshold(0);
        let d = comm
            .collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap();
        assert!(
            (14.0..26.0).contains(&d.as_us()),
            "2-rank AllReduce at 1 MiB: {d}"
        );
    }

    #[test]
    fn full_node_is_faster_than_seven_ranks_for_allreduce() {
        // The Fig. 12 dip: the 8-GCD communicator gets the hardware ring.
        let elems = (1usize << 20) / 4;
        let lat = |n: usize| {
            let (mut hip, comm, bufs) = setup(n, elems);
            comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
                .unwrap()
                .as_us()
        };
        let l7 = lat(7);
        let l8 = lat(8);
        assert!(l8 < l7, "7 ranks: {l7} µs, 8 ranks: {l8} µs");
    }

    #[test]
    fn small_messages_take_the_tree_and_beat_the_ring_shape() {
        // 4 KiB AllReduce at 8 ranks: 6 tree rounds instead of 14 ring
        // rounds. Compare against a just-above-threshold ring run scaled
        // by size to isolate the algorithmic effect.
        let elems_small = 1024; // 4 KiB, tree
        let elems_ring = (RCCL_TREE_THRESHOLD_BYTES / 4) as usize + 256; // ring
        let lat = |elems: usize| {
            let (mut hip, comm, bufs) = setup(8, elems);
            comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
                .unwrap()
                .as_us()
        };
        let tree = lat(elems_small);
        let ring = lat(elems_ring);
        // Both are latency-bound at these sizes; the tree's fewer rounds
        // must show up directly.
        assert!(tree < 0.8 * ring, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn tree_path_preserves_numerics_for_all_rank_counts_and_roots() {
        for n in [2usize, 3, 5, 8] {
            for root in [0, n - 1] {
                let elems = 128; // well under the tree threshold
                let (mut hip, comm, bufs) = setup(n, elems);
                comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, root)
                    .unwrap();
                let expect = (n * (n + 1) / 2) as f32;
                for r in 0..n {
                    let v = hip
                        .mem()
                        .read_f32s(bufs.recv[r], 0, elems)
                        .unwrap()
                        .unwrap();
                    assert_eq!(v, vec![expect; elems], "n={n} root={root} rank {r}");
                }
                // Rooted ops too.
                let (mut hip, comm, bufs) = setup(n, elems);
                comm.collective(&mut hip, Collective::Reduce, &bufs, elems, root)
                    .unwrap();
                let v = hip
                    .mem()
                    .read_f32s(bufs.recv[root], 0, elems)
                    .unwrap()
                    .unwrap();
                assert_eq!(v, vec![expect; elems], "reduce n={n} root={root}");
                let (mut hip, comm, bufs) = setup(n, elems);
                comm.collective(&mut hip, Collective::Broadcast, &bufs, elems, root)
                    .unwrap();
                for r in 0..n {
                    let v = hip
                        .mem()
                        .read_f32s(bufs.recv[r], 0, elems)
                        .unwrap()
                        .unwrap();
                    assert_eq!(
                        v,
                        vec![(root + 1) as f32; elems],
                        "bcast n={n} root={root} rank {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_to_all_transposes_blocks_across_ranks() {
        let n = 4;
        let elems = 16; // block = 4
        let mut hip = HipSim::new(EnvConfig::default());
        let comm = RcclComm::new(&mut hip, (0..n).collect()).unwrap();
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for r in 0..n {
            hip.set_device(r).unwrap();
            let s = hip.malloc(elems as u64 * 4).unwrap();
            let d = hip.malloc(elems as u64 * 4).unwrap();
            // Block b of rank r's send buffer = 10*r + b, so destination
            // and origin are both readable from the value.
            let data: Vec<f32> = (0..elems).map(|i| (10 * r + i / 4) as f32).collect();
            hip.mem_mut().write_f32s(s, 0, &data).unwrap();
            send.push(s);
            recv.push(d);
        }
        let bufs = RankBuffers { send, recv };
        let d = comm.all_to_all(&mut hip, &bufs, elems).unwrap();
        assert!(d.as_us() > 0.0);
        // Rank at position q ends with block from position p at slot p,
        // whose value is 10*rank(p) + q's position index.
        for r in 0..n {
            let q = comm.position_of_rank(r);
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            for p in 0..n {
                let sender_rank = (0..n).find(|&x| comm.position_of_rank(x) == p).unwrap();
                let expect = (10 * sender_rank + q) as f32;
                assert_eq!(
                    &v[p * 4..p * 4 + 4],
                    vec![expect; 4].as_slice(),
                    "rank {r} slot {p}"
                );
            }
        }
    }

    #[test]
    fn communicator_requires_two_ranks() {
        let mut hip = HipSim::new(EnvConfig::default());
        assert!(RcclComm::new(&mut hip, vec![0]).is_err());
    }

    #[test]
    fn ring_rebuild_routes_around_a_downed_link() {
        use ifsim_des::Time;
        use ifsim_hip::{FaultKind, FaultPlan};
        let elems = 64;
        let (mut hip, mut comm, bufs) = setup(8, elems);
        // The healthy full-node ring is all-direct, so some rotation of it
        // crosses each quad link; kill GCD0<->GCD1 and rebuild.
        let plan = FaultPlan::new().at(
            Time::from_ns(1.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(1),
            },
        );
        hip.set_fault_plan(plan).unwrap();
        hip.host_sleep(ifsim_des::Dur::from_us(1.0)); // let the fault land
        comm.rebuild(&hip).unwrap();
        let ring = comm.ring().clone();
        for i in 0..ring.len() {
            let a = ring.order[i];
            let b = ring.next(i);
            assert!(
                hip.topo().xgmi_width(a, b).is_some(),
                "rebuilt edge {a}->{b} is not direct: {:?}",
                ring.order
            );
            assert!(
                !(a.0.min(b.0) == 0 && a.0.max(b.0) == 1),
                "rebuilt ring still crosses the dead link: {:?}",
                ring.order
            );
        }
        // The rebuilt communicator still computes correct collectives.
        comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap();
        for r in 0..8 {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            assert_eq!(v, vec![36.0; elems], "rank {r}");
        }
    }

    #[test]
    fn ring_rebuild_reports_partition_cleanly() {
        use ifsim_des::Time;
        use ifsim_hip::{FaultKind, FaultPlan, HipError};
        let (mut hip, mut comm, _bufs) = setup(8, 16);
        // GCD0's complete neighborhood: quad to 1, single to 2, dual to 6.
        let mut plan = FaultPlan::new();
        for b in [1u8, 2, 6] {
            plan = plan.at(
                Time::from_ns(1.0),
                FaultKind::LinkDown {
                    a: GcdId(0),
                    b: GcdId(b),
                },
            );
        }
        let before = comm.ring().clone();
        hip.set_fault_plan(plan).unwrap();
        hip.host_sleep(ifsim_des::Dur::from_us(1.0));
        let err = comm.rebuild(&hip).unwrap_err();
        assert!(matches!(err, HipError::LinkDown(_)), "{err}");
        assert_eq!(comm.ring(), &before, "failed rebuild must not mutate");
    }
}
