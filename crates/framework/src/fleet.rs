//! Supervised multi-process worker fleet (PR 9).
//!
//! The paper's frameworks run SPMD components inside one process per
//! rank; this module makes the framework the *parent* of that fleet. A
//! [`FleetSupervisor`] launches each rank as a child process (re-exec of
//! the current binary with `CCA_FLEET_*` env, or a scripted
//! [`MockLauncher`] under test). Children dial back over `tcp+mux://`
//! and register with a [`cca_rpc::FrameKind::Join`] handshake; after the
//! join, **the connection is the liveness signal**: a `kill -9` tears the
//! socket, the mux server reports [`SessionSink::disconnected`], and the
//! hub bumps the group *generation* — survivors parked in a collective
//! get a typed [`ParallelError::Interrupted`] instead of a hang. The
//! error travels up as a value — through the collective, the solver and
//! the worker's step — to [`run_worker`], which resynchronizes with the
//! restarted rank, rolls back to the last committed checkpoint and runs
//! on. Nothing unwinds.
//!
//! Pieces (one file each):
//!
//! * [`FleetHub`] — parent-side mailbox switchboard. Implements both the
//!   rpc [`Dispatcher`] (compact fleet ops: send/recv/checkpoint/
//!   restore/resync/result/lookup) and [`SessionSink`] (join/leave
//!   handshakes, death detection). All state is generation-tagged: a
//!   non-clean disconnect of a joined rank purges in-flight mail and
//!   staged checkpoints and bumps the generation, so no pre-death bytes
//!   can leak into the replayed epoch.
//! * `ops` — the compact op codec both sides speak.
//! * [`HubLink`] — child-side [`WireLink`]: routes
//!   [`cca_parallel::Comm`] collectives through the hub with a
//!   long-poll recv, plus the checkpoint/restore/resync side-band.
//!   Beside it, [`run_worker`] — the one rollback loop: resync, restore
//!   (or start fresh), fresh `Comm`, step and checkpoint to the end,
//!   deposit and wait for every rank's result, leave; an `Interrupted`
//!   anywhere goes round again, any other error is returned. A rank
//!   supplies the steps as a [`Worker`].
//! * Launchers — [`ExecLauncher`] re-execs the binary, [`MockLauncher`]
//!   scripts processes for tests.
//! * [`FleetSupervisor`] — launch, waitpid-style exit polling, per-rank
//!   [`CircuitBreaker`] quarantine, decorrelated-jitter restart backoff
//!   (each rank's seeded `RetryPolicy` schedule, rewound when the rank
//!   proves healthy) on a mockable [`Clock`], rejoin bookkeeping, and
//!   zombie-free [`FleetSupervisor::shutdown`].
//!
//! Provider labels follow incarnations: the hub's label registry
//! ([`FleetHub::resolve_provider`]) refuses entries registered by a dead
//! or superseded incarnation, closing the stale-label hole audited in
//! [`crate::connect`] (a `tcp+mux://` label from a dead process must not
//! satisfy a lookup).
//!
//! [`SessionSink`]: cca_rpc::SessionSink
//! [`SessionSink::disconnected`]: cca_rpc::SessionSink::disconnected
//! [`ParallelError::Interrupted`]: cca_parallel::ParallelError::Interrupted
//! [`Dispatcher`]: cca_rpc::transport::Dispatcher
//! [`WireLink`]: cca_parallel::WireLink
//! [`CircuitBreaker`]: cca_core::resilience::CircuitBreaker
//! [`Clock`]: cca_core::resilience::Clock

use cca_core::resilience::SplitMix64;

mod hub;
mod launch;
mod link;
pub(crate) mod ops;
mod supervisor;

pub use hub::FleetHub;
pub use launch::{
    ExecLauncher, LaunchSpec, MockLauncher, MockProcess, ProcessHandle, RankLauncher,
};
pub use link::{run_worker, HubLink, Worker};
pub use supervisor::{FleetConfig, FleetEvent, FleetSupervisor};

/// Env var carrying the child's rank (presence marks a fleet child).
pub const FLEET_RANK_ENV: &str = "CCA_FLEET_RANK";
/// Env var carrying the fleet size.
pub const FLEET_SIZE_ENV: &str = "CCA_FLEET_SIZE";
/// Env var carrying the hub's `host:port`.
pub const FLEET_ADDR_ENV: &str = "CCA_FLEET_ADDR";
/// Env var carrying the child's incarnation number (1 = first launch).
pub const FLEET_INCARNATION_ENV: &str = "CCA_FLEET_INCARNATION";

/// The identity a fleet child reads from its environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRankEnv {
    /// This child's rank in `0..size`.
    pub rank: u32,
    /// Fleet size.
    pub size: u32,
    /// Hub address to dial back to.
    pub addr: String,
    /// Incarnation (1 = first launch, bumped on every restart).
    pub incarnation: u32,
}

/// Reads the fleet identity from the environment; `None` means this
/// process is not a supervised fleet child.
pub fn fleet_rank_env() -> Option<FleetRankEnv> {
    let rank = std::env::var(FLEET_RANK_ENV).ok()?.parse().ok()?;
    let size = std::env::var(FLEET_SIZE_ENV).ok()?.parse().ok()?;
    let addr = std::env::var(FLEET_ADDR_ENV).ok()?;
    let incarnation = std::env::var(FLEET_INCARNATION_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    Some(FleetRankEnv {
        rank,
        size,
        addr,
        incarnation,
    })
}

/// Per-rank backoff seed: decorrelates rank restart schedules from one
/// fleet seed so deaths don't produce lock-step restart convoys.
pub fn rank_backoff_seed(fleet_seed: u64, rank: usize) -> u64 {
    SplitMix64::new(fleet_seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cca_core::resilience::{BackoffSchedule, BreakerState, Clock, MockClock, RetryPolicy};
    use cca_core::CcaError;
    use cca_data::le;
    use cca_parallel::{Comm, ParallelError, SumOp};
    use cca_rpc::transport::Dispatcher;
    use cca_rpc::SessionSink;
    use std::sync::Arc;
    use std::time::Duration;

    fn hello(rank: u32, inc: u32, labels: &[&str]) -> Bytes {
        let labels: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
        Bytes::from(ops::encode_join_hello(rank, inc, &labels))
    }

    fn join_ok(hub: &FleetHub, session: u64, rank: u32, inc: u32, labels: &[&str]) -> ops::JoinAck {
        let ack = hub
            .join(session, hello(rank, inc, labels))
            .expect("join rpc");
        let ack = ops::decode_join_ack(&ack).expect("join ack shape");
        assert_eq!(ack.status, ops::JOIN_OK, "join refused");
        ack
    }

    fn dispatch(hub: &FleetHub, req: Vec<u8>) -> (u8, u64, Vec<u8>) {
        let reply = hub.dispatch(Bytes::from(req)).expect("dispatch");
        let (status, generation) = ops::reply_header(&reply).unwrap();
        (status, generation, reply[ops::REPLY_HEADER_LEN..].to_vec())
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every op a child sends and every reply shape the hub returns, with
    /// the bytes the codec has always produced.
    #[test]
    fn fleet_op_wire_format_is_pinned() {
        let labels = ["x".to_string(), "yz".to_string()];
        let ack = ops::JoinAck {
            status: ops::JOIN_OK,
            generation: 3,
            session: 4,
            size: 5,
            committed_step: u64::MAX,
        };
        let pins: [(Vec<u8>, &str); 9] = [
            (
                ops::send_req(1, 2, 3, 4, 5, b"ab"),
                "01 01000000 0200000000000000 03000000 04000000 0500000000000000 02000000 6162",
            ),
            (
                ops::recv_req(1, 2, 10),
                "02 01000000 0200000000000000 0a000000",
            ),
            (
                ops::checkpoint_req(1, 2, 9, b"c"),
                "03 01000000 0200000000000000 0900000000000000 01000000 63",
            ),
            (
                ops::plain_req(ops::OP_RESTORE, 1, 2),
                "04 01000000 0200000000000000",
            ),
            (
                ops::result_req(1, 2, b"r"),
                "06 01000000 0200000000000000 01000000 72",
            ),
            (ops::lookup_req("ab"), "07 0200 6162"),
            (
                ops::encode_join_hello(1, 2, &labels),
                "01000000 02000000 0200 0100 78 0200 797a",
            ),
            (
                ops::encode_join_ack(&ack),
                "00 0300000000000000 0400000000000000 05000000 ffffffffffffffff",
            ),
            (ops::encode_leave(1, 2), "01000000 02000000"),
        ];
        for (bytes, want) in pins {
            assert_eq!(hex(&bytes), want.replace(' ', ""));
        }

        // The hub's replies: a status and generation header, then the
        // op's payload.
        let hub = FleetHub::new(2);
        join_ok(&hub, 1, 0, 1, &["p"]);
        join_ok(&hub, 2, 1, 1, &[]);
        let reply = |req: Vec<u8>| hex(&hub.dispatch(Bytes::from(req)).unwrap());
        assert_eq!(
            reply(ops::send_req(0, 0, 1, 7, 9, b"hi")),
            "000000000000000000"
        );
        assert_eq!(
            reply(ops::recv_req(1, 0, 0)),
            "00 0000000000000000 00000000 07000000 0900000000000000 02000000 6869".replace(' ', "")
        );
        assert_eq!(
            reply(ops::recv_req(1, 0, 0)),
            "010000000000000000",
            "an empty mailbox"
        );
        reply(ops::checkpoint_req(0, 0, 3, b"s0"));
        reply(ops::checkpoint_req(1, 0, 3, b"s1"));
        assert_eq!(
            reply(ops::plain_req(ops::OP_RESTORE, 1, 0)),
            "00 0000000000000000 0300000000000000 02000000 7331".replace(' ', "")
        );
        assert_eq!(
            reply(ops::lookup_req("p")),
            "00 0000000000000000 00000000 01000000".replace(' ', "")
        );
        assert_eq!(
            reply(ops::recv_req(1, 5, 0)),
            "020000000000000000",
            "a stale generation"
        );
        assert_eq!(
            hub.leave(2, Bytes::from(ops::encode_leave(1, 1))).unwrap(),
            [0]
        );
    }

    /// Adds `step + 1` per step; fails step `fail.0` once with `fail.1`.
    #[derive(Default)]
    struct Counter {
        total: u64,
        restores: u32,
        stepped: Vec<u64>,
        fail: Option<(u64, CcaError)>,
    }

    impl Worker for Counter {
        fn restore(&mut self, checkpoint: Option<(u64, &[u8])>) -> Result<(), CcaError> {
            self.restores += 1;
            self.total = checkpoint.map_or(0, |(_, b)| u64::from_le_bytes(b.try_into().unwrap()));
            Ok(())
        }

        fn step(&mut self, _: &Comm, step: u64) -> Result<Vec<u8>, CcaError> {
            self.stepped.push(step);
            if self.fail.as_ref().is_some_and(|(at, _)| *at == step) {
                return Err(self.fail.take().unwrap().1);
            }
            self.total += step + 1;
            Ok(self.total.to_le_bytes().to_vec())
        }

        fn finish(&mut self, _: &Comm) -> Result<Vec<u8>, CcaError> {
            Ok(self.total.to_le_bytes().to_vec())
        }
    }

    /// Runs `work` for four steps as the only rank of a fresh hub.
    fn run_alone(work: &mut Counter) -> (Result<(), CcaError>, Option<Vec<Vec<u8>>>) {
        let (hub, server) = FleetHub::serve(1, "127.0.0.1:0").expect("bind hub server");
        let addr = server.local_addr().to_string();
        let link = HubLink::connect(&addr, 0, 1, &[], Duration::from_secs(10)).expect("join");
        let outcome = run_worker(&link, 4, work);
        let results = hub.all_results();
        drop(link);
        server.shutdown();
        (outcome, results)
    }

    #[test]
    fn run_worker_rolls_back_to_the_committed_checkpoint_on_interruption() {
        let mut clean = Counter::default();
        let (outcome, want) = run_alone(&mut clean);
        assert_eq!(outcome, Ok(()));
        assert_eq!(want, Some(vec![10u64.to_le_bytes().to_vec()]));

        let interrupted = ParallelError::Interrupted { generation: 0 };
        let mut work = Counter {
            fail: Some((2, interrupted.into())),
            ..Counter::default()
        };
        let (outcome, got) = run_alone(&mut work);
        assert_eq!(outcome, Ok(()));
        assert_eq!(got, want, "the resumed run finishes with the same result");
        assert_eq!(work.restores, 2, "one rollback");
        assert_eq!(work.stepped, [0, 1, 2, 2, 3], "resumed at committed step 2");
    }

    #[test]
    fn run_worker_returns_other_errors_after_one_attempt() {
        let boom = CcaError::Framework("boom".into());
        let mut work = Counter {
            fail: Some((1, boom.clone())),
            ..Counter::default()
        };
        let (outcome, results) = run_alone(&mut work);
        assert_eq!(outcome, Err(boom));
        assert_eq!(work.restores, 1, "not retried");
        assert_eq!(work.stepped, [0, 1]);
        assert_eq!(results, None, "nothing deposited");
    }

    /// Adds `allreduce(rank + 1)` per step; `finish` is itself a
    /// collective, like a global mass. With `die` set, this incarnation
    /// fails once its share of the final collective is done — after
    /// giving rank 0 time to deposit and leave, were it allowed to.
    struct Summer {
        value: f64,
        die: Option<Arc<FleetHub>>,
    }

    impl Worker for Summer {
        fn restore(&mut self, checkpoint: Option<(u64, &[u8])>) -> Result<(), CcaError> {
            self.value = checkpoint.map_or(0.0, |(_, b)| f64::from_le_bytes(b.try_into().unwrap()));
            Ok(())
        }

        fn step(&mut self, comm: &Comm, _: u64) -> Result<Vec<u8>, CcaError> {
            self.value += comm.allreduce(comm.rank() as f64 + 1.0, &SumOp)?;
            Ok(self.value.to_le_bytes().to_vec())
        }

        fn finish(&mut self, comm: &Comm) -> Result<Vec<u8>, CcaError> {
            let total = comm.allreduce(self.value, &SumOp)?;
            if let Some(hub) = self.die.take() {
                let deadline = std::time::Instant::now() + Duration::from_millis(300);
                while !hub.departed(0) && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Err(CcaError::Framework("killed".into()));
            }
            Ok(total.to_le_bytes().to_vec())
        }
    }

    #[test]
    fn run_worker_redoes_the_final_collective_when_a_peer_dies_before_depositing() {
        let (hub, server) = FleetHub::serve(3, "127.0.0.1:0").expect("bind hub server");
        let addr = server.local_addr().to_string();
        let ranks: Vec<_> = (0..3u32)
            .map(|rank| {
                let (addr, hub) = (addr.clone(), Arc::clone(&hub));
                std::thread::spawn(move || {
                    let connect = |inc| {
                        HubLink::connect(&addr, rank, inc, &[], Duration::from_secs(5))
                            .expect("join")
                    };
                    let mut work = Summer {
                        value: 0.0,
                        die: (rank == 2).then(|| Arc::clone(&hub)),
                    };
                    if rank == 2 {
                        // Dropping the link tears its socket: a death.
                        let died = run_worker(&connect(1), 3, &mut work);
                        assert_eq!(died, Err(CcaError::Framework("killed".into())));
                        while hub.present(2) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        return run_worker(&connect(2), 3, &mut work);
                    }
                    run_worker(&connect(1), 3, &mut work)
                })
            })
            .collect();
        for rank in ranks {
            assert_eq!(rank.join().unwrap(), Ok(()));
        }
        // Each step adds 1 + 2 + 3 on every rank; finish sums the ranks.
        let want = (3.0 * 3.0 * 6.0f64).to_le_bytes().to_vec();
        assert_eq!(hub.all_results(), Some(vec![want; 3]));
        assert!(hub.generation() >= 1, "the death rolled the group back");
        server.shutdown();
    }

    #[test]
    fn hub_results_freeze_once_every_rank_has_deposited() {
        let hub = FleetHub::new(2);
        join_ok(&hub, 1, 0, 1, &[]);
        join_ok(&hub, 2, 1, 1, &[]);
        let (st, _, _) = dispatch(&hub, ops::result_req(0, 0, b"r0"));
        assert_eq!(st, ops::ST_EMPTY, "rank 1 still owes its result");
        let (st, _, _) = dispatch(&hub, ops::result_req(1, 0, b"r1"));
        assert_eq!(st, ops::ST_OK);
        let (st, _, _) = dispatch(&hub, ops::result_req(0, 9, b"xx"));
        assert_eq!(st, ops::ST_OK, "a late deposit changes nothing");

        // A death after the last result is a departure, not a rollback.
        hub.disconnected(1);
        assert_eq!(hub.generation(), 0);
        assert!(hub.departed(0));
        assert_eq!(
            hub.all_results(),
            Some(vec![b"r0".to_vec(), b"r1".to_vec()])
        );
    }

    #[test]
    fn hub_relays_mail_and_bumps_generation_on_death() {
        let hub = FleetHub::new(2);
        join_ok(&hub, 1, 0, 1, &[]);
        join_ok(&hub, 2, 1, 1, &[]);
        assert!(hub.present(0) && hub.present(1));

        // rank 0 -> rank 1
        let (st, gen, _) = dispatch(&hub, ops::send_req(0, 0, 1, 7, 0x42, b"hi"));
        assert_eq!((st, gen), (ops::ST_OK, 0));
        let (st, _, rest) = dispatch(&hub, ops::recv_req(1, 0, 0));
        assert_eq!(st, ops::ST_OK);
        let mut r = le::Reader::new(&rest);
        assert_eq!(r.get::<u32>().unwrap(), 0, "src");
        assert_eq!(r.get::<u32>().unwrap(), 7, "context");
        assert_eq!(r.get::<u64>().unwrap(), 0x42, "tag");
        assert_eq!(r.bytes32().unwrap(), b"hi");

        // Empty mailbox returns ST_EMPTY, not a hang.
        let (st, _, _) = dispatch(&hub, ops::recv_req(1, 0, 0));
        assert_eq!(st, ops::ST_EMPTY);

        // Queue a message, then kill rank 0: generation bumps and the
        // pre-death message must NOT survive into the new epoch.
        let (st, _, _) = dispatch(&hub, ops::send_req(0, 0, 1, 0, 1, b"stale"));
        assert_eq!(st, ops::ST_OK);
        hub.disconnected(1);
        assert_eq!(hub.generation(), 1);
        assert!(!hub.present(0));

        let (st, gen, _) = dispatch(&hub, ops::recv_req(1, 0, 0));
        assert_eq!(
            (st, gen),
            (ops::ST_STALE, 1),
            "old-generation op is refused"
        );
        let (st, _, _) = dispatch(&hub, ops::recv_req(1, 1, 0));
        assert_eq!(st, ops::ST_EMPTY, "pre-death mail was purged");

        // Rejoin with a newer incarnation at the new generation.
        let ack = join_ok(&hub, 3, 0, 2, &[]);
        assert_eq!(ack.generation, 1);
        assert_eq!(hub.latest_join(0), Some((2, 2)));
    }

    #[test]
    fn hub_join_refusals_cover_bad_rank_duplicate_and_stale_incarnation() {
        let hub = FleetHub::new(2);
        let ack = hub.join(1, hello(9, 1, &[])).unwrap();
        assert_eq!(
            ops::decode_join_ack(&ack).unwrap().status,
            ops::JOIN_BAD_RANK
        );

        join_ok(&hub, 2, 0, 1, &[]);
        let ack = hub.join(3, hello(0, 2, &[])).unwrap();
        assert_eq!(
            ops::decode_join_ack(&ack).unwrap().status,
            ops::JOIN_DUPLICATE,
            "a live rank refuses a second session"
        );

        hub.disconnected(2);
        let ack = hub.join(4, hello(0, 1, &[])).unwrap();
        assert_eq!(
            ops::decode_join_ack(&ack).unwrap().status,
            ops::JOIN_STALE_INCARNATION,
            "a restarted rank must present a newer incarnation"
        );
    }

    #[test]
    fn hub_checkpoints_commit_when_all_ranks_stage_the_step() {
        let hub = FleetHub::new(2);
        join_ok(&hub, 1, 0, 1, &[]);
        join_ok(&hub, 2, 1, 1, &[]);

        let (st, _, _) = dispatch(&hub, ops::checkpoint_req(0, 0, 3, b"r0s3"));
        assert_eq!(st, ops::ST_OK);
        assert_eq!(hub.committed_step(), None, "half-staged is not committed");
        let (st, _, _) = dispatch(&hub, ops::checkpoint_req(1, 0, 3, b"r1s3"));
        assert_eq!(st, ops::ST_OK);
        assert_eq!(hub.committed_step(), Some(3));

        let (st, _, rest) = dispatch(&hub, ops::plain_req(ops::OP_RESTORE, 1, 0));
        assert_eq!(st, ops::ST_OK);
        let mut r = le::Reader::new(&rest);
        assert_eq!(r.get::<u64>().unwrap(), 3);
        assert_eq!(r.bytes32().unwrap(), b"r1s3");

        // Death purges staged but keeps committed (it's the rollback target).
        let (st, _, _) = dispatch(&hub, ops::checkpoint_req(0, 0, 4, b"r0s4"));
        assert_eq!(st, ops::ST_OK);
        hub.disconnected(2);
        assert_eq!(hub.committed_step(), Some(3));
        let (st, _, rest) = dispatch(&hub, ops::plain_req(ops::OP_RESTORE, 0, 1));
        assert_eq!(st, ops::ST_OK);
        let mut r = le::Reader::new(&rest);
        assert_eq!(
            r.get::<u64>().unwrap(),
            3,
            "restore serves the pre-death commit"
        );
        assert_eq!(r.bytes32().unwrap(), b"r0s3");
    }

    #[test]
    fn hub_resync_gates_on_every_live_rank_acknowledging_the_generation() {
        let hub = FleetHub::new(2);
        join_ok(&hub, 1, 0, 1, &[]);
        join_ok(&hub, 2, 1, 1, &[]);
        hub.disconnected(1); // gen -> 1
        join_ok(&hub, 3, 0, 2, &[]);

        let (st, _, _) = dispatch(&hub, ops::plain_req(ops::OP_RESYNC, 0, 1));
        assert_eq!(st, ops::ST_EMPTY, "rank 1 has not acked generation 1 yet");
        let (st, _, _) = dispatch(&hub, ops::plain_req(ops::OP_RESYNC, 1, 1));
        assert_eq!(st, ops::ST_OK);
        let (st, _, _) = dispatch(&hub, ops::plain_req(ops::OP_RESYNC, 0, 1));
        assert_eq!(st, ops::ST_OK);
        // A stale-generation resync is told the truth, not deadlocked.
        let (st, gen, _) = dispatch(&hub, ops::plain_req(ops::OP_RESYNC, 0, 0));
        assert_eq!((st, gen), (ops::ST_STALE, 1));
    }

    #[test]
    fn stale_provider_labels_do_not_resolve_across_incarnations() {
        let hub = FleetHub::new(2);
        let label = "tcp+mux://127.0.0.1:5555/solver.port";
        join_ok(&hub, 1, 0, 1, &[label]);
        assert_eq!(hub.resolve_provider(label), Some((0, 1)));

        // The process dies: its label must stop resolving immediately,
        // even though the registry entry still exists.
        hub.disconnected(1);
        assert_eq!(
            hub.resolve_provider(label),
            None,
            "a dead incarnation's tcp+mux label must not satisfy a lookup"
        );
        let (st, _, _) = dispatch(&hub, ops::lookup_req(label));
        assert_eq!(st, ops::ST_EMPTY);

        // The restarted incarnation re-registers at join; lookups resolve
        // to the NEW incarnation only.
        join_ok(&hub, 2, 0, 2, &[label]);
        assert_eq!(hub.resolve_provider(label), Some((0, 2)));
        let (st, _, rest) = dispatch(&hub, ops::lookup_req(label));
        assert_eq!(st, ops::ST_OK);
        let mut r = le::Reader::new(&rest);
        assert_eq!((r.get::<u32>().unwrap(), r.get::<u32>().unwrap()), (0, 2));
    }

    fn mock_fleet(size: usize) -> (Arc<FleetSupervisor>, Arc<MockLauncher>, Arc<MockClock>) {
        let mut config = FleetConfig::new(size);
        config.seed = 42;
        config.base_backoff_ns = 10_000_000; // 10ms
        config.max_backoff_ns = 80_000_000;
        config.healthy_after_ns = 5_000_000; // 5ms
        config.require_join_for_healthy = false; // mock children never dial in
        let launcher = MockLauncher::new();
        let clock = MockClock::new();
        let sup = FleetSupervisor::new(
            config,
            Arc::clone(&launcher) as Arc<dyn RankLauncher>,
            clock.clone() as Arc<dyn Clock>,
        )
        .expect("bind hub server");
        (sup, launcher, clock)
    }

    /// Rank `rank`'s restart delays under `mock_fleet`'s config.
    fn restart_schedule(rank: usize) -> BackoffSchedule {
        RetryPolicy::new(u32::MAX, 10_000_000, 80_000_000)
            .with_jitter_seed(rank_backoff_seed(42, rank))
            .schedule()
    }

    #[test]
    fn restart_backoff_matches_core_schedule_and_resets() {
        let (sup, launcher, clock) = mock_fleet(1);
        sup.start();
        // kill -9 the rank, read the restart delay, let the restart fire.
        let crash_and_restart = || {
            launcher.last_for_rank(0).unwrap().exit_with(-9);
            sup.tick();
            let delay = match sup.events().last() {
                Some(FleetEvent::RestartScheduled { delay_ns, .. }) => *delay_ns,
                other => panic!("expected a scheduled restart, got {other:?}"),
            };
            clock.advance_ns(delay);
            sup.tick();
            delay
        };
        let first = crash_and_restart();
        let second = crash_and_restart(); // inside the health window: no rewind
        clock.advance_ns(5_000_000);
        sup.tick(); // healthy: the schedule rewinds
        let after_healthy = crash_and_restart();
        assert_eq!(launcher.spawned().len(), 4);
        sup.shutdown();

        let core: Vec<u64> = restart_schedule(0).take(2).collect();
        assert_eq!(
            [first, second],
            core[..],
            "fleet backoff is the core schedule"
        );
        assert!(core.iter().all(|d| (10_000_000..=80_000_000).contains(d)));
        assert_eq!(after_healthy, core[0], "healthy rewinds the stream");

        // Per-rank seeds decorrelate.
        let other: Vec<u64> = restart_schedule(1).take(2).collect();
        assert_ne!(core, other, "different ranks draw different jitter");
        assert_ne!(rank_backoff_seed(42, 0), rank_backoff_seed(42, 1));
        assert_eq!(rank_backoff_seed(42, 3), rank_backoff_seed(42, 3));
    }

    #[test]
    fn supervisor_restart_schedule_is_deterministic_on_the_mock_clock() {
        let (sup, launcher, clock) = mock_fleet(2);
        sup.start();
        assert_eq!(launcher.spawned().len(), 2);

        // Health window passes: breakers succeed, backoffs rewind.
        clock.advance_ns(5_000_000);
        sup.tick();
        assert!(sup
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::Healthy { rank: 0, .. })));

        // kill -9 rank 0: the restart must land exactly one jitter draw
        // later — the same draw the core schedule produces for this seed.
        let expected = restart_schedule(0).next().unwrap();
        launcher.last_for_rank(0).unwrap().exit_with(-9);
        sup.tick();
        assert!(matches!(sup.breaker_state(0), BreakerState::Open));
        assert_eq!(launcher.spawned().len(), 2, "no instant restart");

        clock.advance_ns(expected - 1);
        sup.tick();
        assert_eq!(launcher.spawned().len(), 2, "one ns early: still waiting");

        clock.advance_ns(1);
        sup.tick();
        let spawned = launcher.spawned();
        assert_eq!(
            spawned.len(),
            3,
            "restart fires exactly at the backoff deadline"
        );
        assert_eq!((spawned[2].rank, spawned[2].incarnation), (0, 2));
        assert!(sup.events().iter().any(|e| matches!(
            e,
            FleetEvent::RestartScheduled { rank: 0, incarnation: 2, delay_ns, .. } if *delay_ns == expected
        )));
        sup.shutdown();
    }

    /// The paper's section 4 failure notification: a framework attached
    /// to the supervisor hears, through its configuration listeners, a
    /// killed rank die and then rejoin at its next incarnation.
    #[test]
    fn an_attached_framework_hears_a_killed_rank_die_and_rejoin() {
        use crate::Framework;
        use cca_core::event::RecordingListener;
        use cca_core::ConfigEvent;
        use cca_repository::Repository;

        let (sup, launcher, clock) = mock_fleet(1);
        let fw = Framework::new(Repository::new());
        let rec = RecordingListener::new();
        fw.add_listener(rec.clone());
        sup.attach_framework(&fw);
        sup.start();
        join_ok(sup.hub(), 1, 0, 1, &[]);
        sup.tick();
        assert!(rec.is_empty(), "a first join is not a rejoin");

        // kill -9: the process exits and its hub session closes.
        launcher.last_for_rank(0).unwrap().exit_with(-9);
        sup.hub().disconnected(1);
        sup.tick();
        let delay = match sup.events().last() {
            Some(FleetEvent::RestartScheduled { delay_ns, .. }) => *delay_ns,
            other => panic!("expected a scheduled restart, got {other:?}"),
        };
        clock.advance_ns(delay);
        sup.tick(); // incarnation 2 launches...
        join_ok(sup.hub(), 2, 0, 2, &[]);
        sup.tick(); // ...and joins the hub.

        let events = rec.events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(
            matches!(
                events[0],
                ConfigEvent::RankDied {
                    rank: 0,
                    incarnation: 1,
                    ..
                }
            ),
            "{events:?}"
        );
        assert!(
            matches!(
                events[1],
                ConfigEvent::RankRejoined {
                    rank: 0,
                    incarnation: 2,
                    ..
                }
            ),
            "{events:?}"
        );
        sup.shutdown();
    }

    /// Reads the dying rank's breaker from inside `RankDied`.
    struct BreakerProbe {
        sup: Arc<FleetSupervisor>,
        seen: parking_lot::Mutex<Vec<BreakerState>>,
    }

    impl cca_core::event::ConfigListener for BreakerProbe {
        fn on_event(&self, event: &cca_core::ConfigEvent) {
            if let cca_core::ConfigEvent::RankDied { rank, .. } = event {
                let state = self.sup.breaker_state(*rank as usize);
                self.seen.lock().push(state);
            }
        }
    }

    /// A configuration listener runs after the supervisor has released
    /// its slots, so it may call back into the supervisor: reading the
    /// breaker of the rank it hears die sees that rank quarantined,
    /// where a listener run under the slot lock deadlocks the tick.
    #[test]
    fn a_listener_reads_the_breaker_of_the_rank_it_hears_die() {
        use crate::Framework;
        use cca_repository::Repository;

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (sup, launcher, _clock) = mock_fleet(1);
            let fw = Framework::new(Repository::new());
            let probe = Arc::new(BreakerProbe {
                sup: Arc::clone(&sup),
                seen: parking_lot::Mutex::new(Vec::new()),
            });
            fw.add_listener(probe.clone());
            sup.attach_framework(&fw);
            sup.start();
            launcher.last_for_rank(0).unwrap().exit_with(-9);
            sup.tick();
            sup.shutdown();
            let _ = tx.send(probe.seen.lock().clone());
        });
        let seen = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the tick that reports a death did not finish within 5 s");
        assert_eq!(seen, [BreakerState::Open]);
    }

    #[test]
    fn double_crash_during_half_open_probe_reopens_the_breaker() {
        let (sup, launcher, clock) = mock_fleet(1);
        sup.start();
        clock.advance_ns(5_000_000);
        sup.tick(); // healthy; backoff rewound

        let mut schedule = restart_schedule(0);
        let first = schedule.next().unwrap();
        let second = schedule.next().unwrap();

        // Crash 1: quarantined, restart (the half-open probe) launches.
        launcher.last_for_rank(0).unwrap().exit_with(-9);
        sup.tick();
        clock.advance_ns(first);
        sup.tick();
        assert_eq!(launcher.spawned().len(), 2);
        assert!(
            matches!(sup.breaker_state(0), BreakerState::HalfOpen),
            "the restarted rank is a half-open probe until it proves healthy"
        );

        // Crash 2 BEFORE the health window: the probe failed, the breaker
        // reopens, and the second backoff draw (a wider window) gates the
        // next attempt.
        launcher.last_for_rank(0).unwrap().exit_with(-9);
        sup.tick();
        assert!(matches!(sup.breaker_state(0), BreakerState::Open));
        assert_eq!(launcher.spawned().len(), 2);

        clock.advance_ns(second);
        sup.tick();
        let spawned = launcher.spawned();
        assert_eq!(
            spawned.len(),
            3,
            "third incarnation launches after the second draw"
        );
        assert_eq!((spawned[2].rank, spawned[2].incarnation), (0, 3));

        // Surviving the health window closes the breaker again.
        clock.advance_ns(5_000_000);
        sup.tick();
        assert!(matches!(sup.breaker_state(0), BreakerState::Closed));
        sup.shutdown();
    }

    #[test]
    fn shutdown_reaps_every_child_and_collects_statuses() {
        let (sup, launcher, clock) = mock_fleet(3);
        sup.start();
        clock.advance_ns(5_000_000);
        sup.tick();

        let statuses = sup.shutdown();
        assert_eq!(statuses.len(), 3);
        for (rank, status) in &statuses {
            assert_eq!(
                *status,
                Some(-9),
                "rank {rank} must be killed and reaped with its signal status"
            );
        }
        assert!(
            launcher.spawned().iter().all(|p| p.was_killed()),
            "every child saw the kill — no orphan survives shutdown"
        );
        let stopped = sup
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::Stopped { .. }))
            .count();
        assert_eq!(stopped, 3);
        // Idempotent: a second shutdown reports the same terminal states.
        assert_eq!(sup.shutdown(), statuses);
    }

    #[test]
    fn clean_exit_after_departure_is_not_restarted() {
        let (sup, launcher, clock) = mock_fleet(1);
        sup.start();
        clock.advance_ns(5_000_000);
        sup.tick();
        // A clean zero exit stops the slot without scheduling a restart.
        launcher.last_for_rank(0).unwrap().exit_with(0);
        sup.tick();
        clock.advance_ns(1_000_000_000);
        sup.tick();
        assert_eq!(launcher.spawned().len(), 1, "clean exits are terminal");
        assert!(sup.events().iter().any(|e| matches!(
            e,
            FleetEvent::Stopped {
                rank: 0,
                status: 0,
                ..
            }
        )));
        sup.shutdown();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use cca_rpc::transport::Dispatcher;
    use cca_rpc::SessionSink;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes into every decoder that reads fleet wire input —
        /// the hub's op dispatch (raw, and behind each valid op byte), the
        /// join and leave handshakes, a child's join-ack parse — are a
        /// reply or a typed error, never a panic.
        #[test]
        fn hostile_fleet_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let hub = FleetHub::new(2);
            let _ = hub.dispatch(Bytes::from(data.clone()));
            for op in ops::OP_SEND..=ops::OP_LOOKUP {
                let mut request = vec![op];
                request.extend_from_slice(&data);
                let _ = hub.dispatch(Bytes::from(request));
            }
            let _ = hub.join(1, Bytes::from(data.clone()));
            let _ = hub.leave(1, Bytes::from(data.clone()));
            let _ = ops::decode_join_ack(&data);
        }
    }
}
