//! The MPI-like layer (GPU-aware Cray-MPICH style).
//!
//! One MPI process per GPU, as the paper's OSU runs are configured. The
//! simulated semantics cover what the benchmarks exercise:
//!
//! - point-to-point `MPI_Isend`/`MPI_Recv` between device buffers, riding
//!   SDMA engines (`HSA_ENABLE_SDMA=1`) or blit kernels with ~12 % software
//!   overhead (`=0`), exactly the two configurations of Fig. 10;
//! - the five collectives over rank-order rings (plus scatter+allgather
//!   broadcast), paying a per-peer IPC handle-mapping cost — the overhead
//!   the paper names as MPI's deficit against RCCL (§VI).

use crate::exec::{run_collective, run_rounds, BcastAlgo, CollectiveCall};
use crate::ring::Ring;
use crate::schedule::{Collective, RankBuffers, Round, Transfer};
use crate::transport::Transport;
use ifsim_des::Dur;
use ifsim_hip::{BufferId, HipError, HipResult, HipSim, RetryPolicy};

/// An MPI communicator: rank *r* runs on `devices[r]`.
pub struct MpiComm {
    devices: Vec<usize>,
    ring: Ring,
}

impl MpiComm {
    /// `MPI_Init` + `MPI_Comm_create`: one process per listed device.
    /// Ring order is rank order — MPI does not do RCCL's topology search.
    pub fn new(hip: &mut HipSim, devices: Vec<usize>) -> HipResult<MpiComm> {
        let order = crate::connect_members(hip, &devices)?;
        Ok(MpiComm {
            devices,
            ring: Ring { order },
        })
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.devices.len()
    }

    /// Member devices in rank order.
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }

    /// Blocking send/recv pair of one message between two ranks' device
    /// buffers. Returns the transfer's wall-clock duration.
    pub fn send_recv(
        &self,
        hip: &mut HipSim,
        from_rank: usize,
        to_rank: usize,
        src: BufferId,
        dst: BufferId,
        bytes: u64,
    ) -> HipResult<Dur> {
        let round = self.p2p_round(from_rank, to_rank, src, dst, bytes)?;
        run_rounds(hip, &self.ring, Transport::Mpi, Dur::ZERO, &[round])
    }

    /// Rendezvous send/recv with a per-attempt timeout and bounded
    /// application-level retry (the recovery loop an MPI job runs on top of
    /// a flaky fabric). Each attempt submits the message and waits at most
    /// `attempt_timeout`; fault-class failures — link down, uncorrectable
    /// ECC, rendezvous timeout — back off exponentially on the host and
    /// try again, up to `max_retries` further attempts. Later attempts
    /// re-plan over the then-current routes, so a reroute or a link
    /// restoration between attempts lets the message through. Returns the
    /// total wall-clock including backoffs, or [`HipError::Timeout`] once
    /// the budget is exhausted. Non-fault errors surface immediately.
    #[allow(clippy::too_many_arguments)]
    pub fn send_recv_with_retry(
        &self,
        hip: &mut HipSim,
        from_rank: usize,
        to_rank: usize,
        src: BufferId,
        dst: BufferId,
        bytes: u64,
        attempt_timeout: Dur,
        max_retries: u32,
    ) -> HipResult<Dur> {
        let t0 = hip.now();
        let backoff = RetryPolicy::default();
        let mut last_err = None;
        for attempt in 0..=max_retries {
            match self.try_send_recv(hip, from_rank, to_rank, src, dst, bytes, attempt_timeout) {
                Ok(_) => return Ok(hip.now() - t0),
                Err(e) if e.is_fault() => {
                    last_err = Some(e);
                    if attempt < max_retries {
                        hip.host_sleep(backoff.backoff(attempt + 1));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(HipError::Timeout(format!(
            "send_recv {from_rank}->{to_rank} gave up after {} attempts: {}",
            max_retries + 1,
            last_err.expect("at least one attempt failed"),
        )))
    }

    /// One rendezvous attempt: submit the message, wait up to `timeout`.
    #[allow(clippy::too_many_arguments)]
    fn try_send_recv(
        &self,
        hip: &mut HipSim,
        from_rank: usize,
        to_rank: usize,
        src: BufferId,
        dst: BufferId,
        bytes: u64,
        timeout: Dur,
    ) -> HipResult<Dur> {
        let t0 = hip.now();
        let round = self.p2p_round(from_rank, to_rank, src, dst, bytes)?;
        crate::exec::submit_round(hip, &self.ring, Transport::Mpi, &round)?;
        let from_gcd = self.ring.order[from_rank];
        let dev = hip
            .device_of_gcd(from_gcd)
            .ok_or_else(|| HipError::InvalidHandle(format!("{from_gcd} not visible")))?;
        let stream = hip.default_stream(dev)?;
        hip.stream_synchronize_timeout(stream, timeout)?;
        Ok(hip.now() - t0)
    }

    /// OSU-style windowed bandwidth inner loop: `window` same-size messages
    /// posted back-to-back (`MPI_Isend`), then a wait. Returns total time.
    #[allow(clippy::too_many_arguments)]
    pub fn send_window(
        &self,
        hip: &mut HipSim,
        from_rank: usize,
        to_rank: usize,
        src: BufferId,
        dst: BufferId,
        bytes: u64,
        window: usize,
    ) -> HipResult<Dur> {
        assert!(window > 0);
        // All sends outstanding at once: one round of `window` transfers.
        let mut round = Vec::with_capacity(window);
        for _ in 0..window {
            round.extend(self.p2p_round(from_rank, to_rank, src, dst, bytes)?);
        }
        run_rounds(hip, &self.ring, Transport::Mpi, Dur::ZERO, &[round])
    }

    fn p2p_round(
        &self,
        from_rank: usize,
        to_rank: usize,
        src: BufferId,
        dst: BufferId,
        bytes: u64,
    ) -> HipResult<Round> {
        if from_rank >= self.n_ranks() || to_rank >= self.n_ranks() || from_rank == to_rank {
            return Err(HipError::InvalidValue(format!(
                "bad rank pair {from_rank} -> {to_rank}"
            )));
        }
        assert_eq!(bytes % 4, 0, "f32-aligned messages");
        Ok(vec![Transfer {
            from: from_rank,
            to: to_rank,
            src,
            src_elem_off: 0,
            dst,
            dst_elem_off: 0,
            elems: (bytes / 4) as usize,
            reduce: false,
        }])
    }

    /// `MPI_Alltoall` (extension benchmark): pairwise exchange over the
    /// CPU-staged path, uniform blocks (`elems % n == 0`).
    pub fn all_to_all(&self, hip: &mut HipSim, bufs: &RankBuffers, elems: usize) -> HipResult<Dur> {
        let n = self.n_ranks();
        let block = elems / n;
        for p in 0..n {
            hip.mem_mut().copy(
                bufs.send[p],
                (p * block) as u64 * 4,
                bufs.recv[p],
                (p * block) as u64 * 4,
                block as u64 * 4,
            )?;
        }
        let setup = hip.calib().mpi_ipc_map_latency * (n - 1) as f64;
        let rounds = crate::schedule::pairwise_alltoall_rounds(&self.ring, bufs, elems);
        run_rounds(hip, &self.ring, Transport::MpiStaged, setup, &rounds)
    }

    /// Run one collective; buffers indexed by rank (= ring position for
    /// MPI), `elems` f32 elements per buffer, buffer contract as in
    /// [`run_collective`].
    pub fn collective(
        &self,
        hip: &mut HipSim,
        coll: Collective,
        bufs: &RankBuffers,
        elems: usize,
        root_rank: usize,
    ) -> HipResult<Dur> {
        // IPC handle exchange + mapping: every process maps each peer's
        // device buffer once per OSU-style call.
        let setup = hip.calib().mpi_ipc_map_latency * (self.n_ranks() - 1) as f64;
        let call = CollectiveCall {
            ring: &self.ring,
            transport: Transport::MpiStaged,
            setup,
            bcast: BcastAlgo::ScatterAllgather,
            root_pos: root_rank,
        };
        run_collective(hip, &call, coll, bufs, elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_des::units::to_gbps;
    use ifsim_hip::EnvConfig;

    fn setup_buffers(hip: &mut HipSim, n: usize, elems: usize) -> RankBuffers {
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
        RankBuffers { send, recv }
    }

    #[test]
    fn p2p_send_moves_data_at_sdma_speed() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let comm = MpiComm::new(&mut hip, vec![0, 1]).unwrap();
        let bytes = 256u64 << 20;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let d = comm.send_recv(&mut hip, 0, 1, src, dst, bytes).unwrap();
        let bw = to_gbps(bytes as f64 / d.as_secs());
        // Quad link, SDMA enabled: engine-capped at ~50 GB/s.
        assert!((48.0..51.0).contains(&bw), "{bw} GB/s");
    }

    #[test]
    fn p2p_without_sdma_runs_10_to_15_percent_below_direct_kernels() {
        let mut hip = HipSim::new(EnvConfig::without_sdma());
        hip.mem_mut().set_phantom_threshold(0);
        let comm = MpiComm::new(&mut hip, vec![0, 2]).unwrap();
        let bytes = 256u64 << 20;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let d = comm.send_recv(&mut hip, 0, 1, src, dst, bytes).unwrap();
        let bw = to_gbps(bytes as f64 / d.as_secs());
        // Single link: 0.87 × 50 × (1 − 0.12) ≈ 38.3 GB/s.
        let direct = 0.87 * 50.0;
        assert!(bw < direct, "{bw} vs direct {direct}");
        assert!(bw > 0.8 * direct, "{bw} not catastrophically low");
    }

    #[test]
    fn mpi_allreduce_is_correct() {
        let mut hip = HipSim::new(EnvConfig::default());
        let n = 8;
        let elems = 64;
        let comm = MpiComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap();
        for r in 0..n {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            assert_eq!(v, vec![36.0; elems], "rank {r}");
        }
    }

    #[test]
    fn mpi_broadcast_is_correct_for_odd_rank_counts() {
        let mut hip = HipSim::new(EnvConfig::default());
        let n = 5;
        let elems = 100;
        let comm = MpiComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        comm.collective(&mut hip, Collective::Broadcast, &bufs, elems, 1)
            .unwrap();
        for r in 0..n {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            assert_eq!(v, vec![2.0; elems], "rank {r}");
        }
    }

    #[test]
    fn rccl_beats_mpi_for_allreduce_but_not_broadcast() {
        // The paper's headline §VI comparison at 1 MiB, 8 ranks.
        let elems = (1usize << 20) / 4;
        let n = 8;

        let mut hip = HipSim::new(EnvConfig::default());
        let mpi = MpiComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        let mpi_ar = mpi
            .collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap()
            .as_us();
        let mpi_bc = mpi
            .collective(&mut hip, Collective::Broadcast, &bufs, elems, 0)
            .unwrap()
            .as_us();

        let mut hip = HipSim::new(EnvConfig::default());
        let rccl = crate::rccl::RcclComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        let rccl_ar = rccl
            .collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap()
            .as_us();
        let rccl_bc = rccl
            .collective(&mut hip, Collective::Broadcast, &bufs, elems, 0)
            .unwrap()
            .as_us();

        assert!(
            rccl_ar < mpi_ar,
            "AllReduce: RCCL {rccl_ar} µs vs MPI {mpi_ar} µs"
        );
        assert!(
            mpi_bc < rccl_bc,
            "Broadcast: MPI {mpi_bc} µs vs RCCL {rccl_bc} µs"
        );
    }

    #[test]
    fn mpi_alltoall_is_correct_and_slower_than_rccl() {
        let n = 8;
        let block = 16 * 1024; // 64 KiB blocks: bandwidth-dominated
        let elems = 8 * block;
        let mut hip = HipSim::new(EnvConfig::default());
        let comm = MpiComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        let d_mpi = comm.all_to_all(&mut hip, &bufs, elems).unwrap();
        // Block p of rank r's recv = rank p's constant (p+1). Spot-check
        // the block boundaries rather than all 128 K elements.
        for r in 0..n {
            let v = hip
                .mem()
                .read_f32s(bufs.recv[r], 0, elems)
                .unwrap()
                .unwrap();
            for p in 0..n {
                let expect = (p + 1) as f32;
                assert_eq!(v[p * block], expect, "rank {r} block {p} head");
                assert_eq!(v[(p + 1) * block - 1], expect, "rank {r} block {p} tail");
            }
        }
        let mut hip = HipSim::new(EnvConfig::default());
        let rccl = crate::rccl::RcclComm::new(&mut hip, (0..n).collect()).unwrap();
        let bufs = setup_buffers(&mut hip, n, elems);
        let d_rccl = rccl.all_to_all(&mut hip, &bufs, elems).unwrap();
        assert!(
            d_rccl < d_mpi,
            "RCCL a2a {} vs MPI a2a {}",
            d_rccl.as_us(),
            d_mpi.as_us()
        );
    }

    #[test]
    fn bad_rank_pairs_rejected() {
        let mut hip = HipSim::new(EnvConfig::default());
        let comm = MpiComm::new(&mut hip, vec![0, 1]).unwrap();
        let b = hip.malloc(64).unwrap();
        assert!(comm.send_recv(&mut hip, 0, 0, b, b, 64).is_err());
        assert!(comm.send_recv(&mut hip, 0, 5, b, b, 64).is_err());
    }

    #[test]
    fn send_recv_retry_recovers_over_the_reroute_after_a_link_drops() {
        use ifsim_des::Time;
        use ifsim_hip::{FaultKind, FaultPlan, GcdId};
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        // Runtime-level retries off: the fault must surface to MPI.
        hip.set_retry_policy(RetryPolicy::no_retries());
        let comm = MpiComm::new(&mut hip, vec![0, 2]).unwrap();
        let bytes = 256u64 << 20;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        // The 0->2 message rides the single link; kill it mid-flight.
        hip.set_fault_plan(FaultPlan::new().at(
            Time::from_ns(2_000_000.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(2),
            },
        ))
        .unwrap();
        let d = comm
            .send_recv_with_retry(&mut hip, 0, 1, src, dst, bytes, Dur::from_ms(200.0), 3)
            .unwrap();
        // First attempt died to the fault; a later attempt re-planned over
        // the detour and completed (data integrity through the retry path
        // is exercised by the runtime-level fault tests).
        assert!(hip.fault_stats().failed_ops >= 1);
        assert!(d > Dur::from_ms(2.0), "{d}");
        assert!(hip.all_idle());
        let _ = dst;
    }

    #[test]
    fn send_recv_retry_gives_up_with_timeout_when_partitioned() {
        use ifsim_des::Time;
        use ifsim_hip::{FaultKind, FaultPlan, GcdId};
        let mut hip = HipSim::new(EnvConfig::default());
        let comm = MpiComm::new(&mut hip, vec![0, 1]).unwrap();
        hip.set_device(0).unwrap();
        let src = hip.malloc(64).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(64).unwrap();
        // Sever GCD0's whole neighborhood before the first attempt.
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
        hip.set_fault_plan(plan).unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        let t0 = hip.now();
        let err = comm
            .send_recv_with_retry(&mut hip, 0, 1, src, dst, 64, Dur::from_ms(1.0), 2)
            .unwrap_err();
        assert!(
            matches!(err, HipError::Timeout(_)),
            "expected Timeout, got {err}"
        );
        assert!(
            format!("{err}").contains("gave up after 3 attempts"),
            "{err}"
        );
        // The backoffs between the three attempts were actually slept.
        assert!(hip.now() - t0 >= Dur::from_us(150.0));
    }
}
