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
//! get a typed [`ParallelError::Interrupted`] instead of a hang, roll
//! back to the last committed checkpoint, and resynchronize with the
//! restarted rank.
//!
//! Pieces:
//!
//! * [`FleetHub`] — parent-side mailbox switchboard. Implements both the
//!   rpc [`Dispatcher`] (compact fleet ops: send/recv/checkpoint/
//!   restore/resync/result/lookup) and [`SessionSink`] (join/leave
//!   handshakes, death detection). All state is generation-tagged: a
//!   non-clean disconnect of a joined rank purges in-flight mail and
//!   staged checkpoints and bumps the generation, so no pre-death bytes
//!   can leak into the replayed epoch.
//! * [`HubLink`] — child-side [`WireLink`]: routes
//!   [`cca_parallel::Comm`] collectives through the hub with a
//!   long-poll recv, plus the checkpoint/restore/resync side-band.
//! * [`FleetSupervisor`] — launch, waitpid-style exit polling, per-rank
//!   [`CircuitBreaker`] quarantine, decorrelated-jitter
//!   [`RestartBackoff`] on a mockable [`Clock`], rejoin bookkeeping,
//!   and zombie-free [`FleetSupervisor::shutdown`].
//!
//! Provider labels follow incarnations: the hub's label registry
//! ([`FleetHub::resolve_provider`]) refuses entries registered by a dead
//! or superseded incarnation, closing the stale-label hole audited in
//! [`crate::connect`] (a `tcp+mux://` label from a dead process must not
//! satisfy a lookup).

use crate::framework::Framework;
use bytes::Bytes;
use cca_core::resilience::{
    BackoffSchedule, BreakerPolicy, BreakerState, CircuitBreaker, Clock, RetryPolicy, SplitMix64,
};
use cca_core::ConfigEvent;
use cca_data::le::{self, Reader};
use cca_parallel::{Comm, ParallelError, WireLink, WireMsg};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxServerConfig, MuxTransport, SessionSink};
use cca_sidl::SidlError;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------------------
// Wire ops between HubLink (child) and FleetHub (parent)
// ---------------------------------------------------------------------------

/// Compact fleet op codec, laid out and bounds-checked by `cca_data::le`.
/// Every request is `[op u8]`, then (all but lookup) `[rank u32][generation
/// u64]`, then the op's LE fields; every reply opens `[status
/// u8][generation u64]` so a child learns about a rollback from *any* op
/// it happens to be in. Labels are `u16`-counted, payloads `u32`-counted.
/// The hub reads each request whole — trailing bytes included — before it
/// acts on any of it.
pub(crate) mod ops {
    use cca_data::le::{self, Reader, Writer};

    pub const OP_SEND: u8 = 1;
    pub const OP_RECV: u8 = 2;
    pub const OP_CHECKPOINT: u8 = 3;
    pub const OP_RESTORE: u8 = 4;
    pub const OP_RESYNC: u8 = 5;
    pub const OP_RESULT: u8 = 6;
    pub const OP_LOOKUP: u8 = 7;

    /// Op succeeded; any payload follows the status header.
    pub const ST_OK: u8 = 0;
    /// Nothing available (empty mailbox, no committed checkpoint, peers
    /// not yet resynced, unknown label) — poll again.
    pub const ST_EMPTY: u8 = 1;
    /// The request carried a stale generation; the header's generation
    /// is the one to adopt before replaying.
    pub const ST_STALE: u8 = 2;

    /// Join accepted.
    pub const JOIN_OK: u8 = 0;
    /// Rank outside `0..size`.
    pub const JOIN_BAD_RANK: u8 = 1;
    /// The rank already has a live session.
    pub const JOIN_DUPLICATE: u8 = 2;
    /// Incarnation not newer than the last join — a stale process.
    pub const JOIN_STALE_INCARNATION: u8 = 3;

    /// A `u16`-counted UTF-8 label.
    pub fn label<'a>(r: &mut Reader<'a>) -> Result<&'a str, le::Error> {
        let n = r.get::<u16>()?;
        std::str::from_utf8(r.bytes(n.into())?).map_err(|_| le::Error::Utf8)
    }

    fn put_label(w: &mut Writer<'_>, label: &str) {
        w.put(label.len() as u16);
        w.bytes(label.as_bytes());
    }

    /// `op`, `rank` and `gen`, then `len` more bytes from `write`.
    fn req(
        op: u8,
        rank: u32,
        gen: u64,
        len: usize,
        write: impl FnOnce(&mut Writer<'_>),
    ) -> Vec<u8> {
        le::encode(13 + len, |w| {
            w.put(op);
            w.put(rank);
            w.put(gen);
            write(w);
        })
    }

    pub fn send_req(
        rank: u32,
        gen: u64,
        dst: u32,
        context: u32,
        tag: u64,
        bytes: &[u8],
    ) -> Vec<u8> {
        req(OP_SEND, rank, gen, 20 + bytes.len(), |w| {
            w.put(dst);
            w.put(context);
            w.put(tag);
            w.bytes32(bytes);
        })
    }

    pub fn recv_req(rank: u32, gen: u64, wait_ms: u32) -> Vec<u8> {
        req(OP_RECV, rank, gen, 4, |w| w.put(wait_ms))
    }

    pub fn checkpoint_req(rank: u32, gen: u64, step: u64, bytes: &[u8]) -> Vec<u8> {
        req(OP_CHECKPOINT, rank, gen, 12 + bytes.len(), |w| {
            w.put(step);
            w.bytes32(bytes);
        })
    }

    pub fn plain_req(op: u8, rank: u32, gen: u64) -> Vec<u8> {
        req(op, rank, gen, 0, |_| {})
    }

    pub fn result_req(rank: u32, gen: u64, bytes: &[u8]) -> Vec<u8> {
        req(OP_RESULT, rank, gen, 4 + bytes.len(), |w| w.bytes32(bytes))
    }

    pub fn lookup_req(label: &str) -> Vec<u8> {
        le::encode(3 + label.len(), |w| {
            w.put(OP_LOOKUP);
            put_label(w, label);
        })
    }

    /// Bytes of a reply's status and generation header.
    pub const REPLY_HEADER_LEN: usize = 9;

    /// The status and generation header, then `len` bytes from `write`.
    pub fn reply(
        status: u8,
        generation: u64,
        len: usize,
        write: impl FnOnce(&mut Writer<'_>),
    ) -> Vec<u8> {
        le::encode(REPLY_HEADER_LEN + len, |w| {
            w.put(status);
            w.put(generation);
            write(w);
        })
    }

    /// A reply's status and generation.
    pub fn reply_header(reply: &[u8]) -> Result<(u8, u64), le::Error> {
        let mut r = Reader::new(reply);
        Ok((r.get()?, r.get()?))
    }

    pub fn encode_join_hello(rank: u32, incarnation: u32, labels: &[String]) -> Vec<u8> {
        let len = 10 + labels.iter().map(|l| 2 + l.len()).sum::<usize>();
        le::encode(len, |w| {
            w.put(rank);
            w.put(incarnation);
            w.put(labels.len() as u16);
            for l in labels {
                put_label(w, l);
            }
        })
    }

    /// `(rank, incarnation, labels)`.
    pub fn decode_join_hello(hello: &[u8]) -> Result<(u32, u32, Vec<&str>), le::Error> {
        le::decode(hello, |r| {
            let (rank, incarnation, n) = (r.get()?, r.get()?, r.get::<u16>()?);
            // Collected without a capacity: the count is not trusted.
            let labels = (0..n).map(|_| label(r)).collect::<Result<_, _>>()?;
            Ok((rank, incarnation, labels))
        })
    }

    pub struct JoinAck {
        pub status: u8,
        pub generation: u64,
        pub session: u64,
        pub size: u32,
        /// `u64::MAX` encodes "no committed checkpoint yet".
        pub committed_step: u64,
    }

    pub fn encode_join_ack(ack: &JoinAck) -> Vec<u8> {
        le::encode(29, |w| {
            w.put(ack.status);
            w.put(ack.generation);
            w.put(ack.session);
            w.put(ack.size);
            w.put(ack.committed_step);
        })
    }

    pub fn decode_join_ack(buf: &[u8]) -> Result<JoinAck, le::Error> {
        le::decode(buf, |r| {
            Ok(JoinAck {
                status: r.get()?,
                generation: r.get()?,
                session: r.get()?,
                size: r.get()?,
                committed_step: r.get()?,
            })
        })
    }

    pub fn encode_leave(rank: u32, incarnation: u32) -> Vec<u8> {
        le::encode(8, |w| {
            w.put(rank);
            w.put(incarnation);
        })
    }

    /// `(rank, incarnation)`.
    pub fn decode_leave(goodbye: &[u8]) -> Result<(u32, u32), le::Error> {
        le::decode(goodbye, |r| Ok((r.get()?, r.get()?)))
    }
}

// ---------------------------------------------------------------------------
// FleetHub — the parent-side switchboard
// ---------------------------------------------------------------------------

struct HubMsg {
    src: u32,
    context: u32,
    tag: u64,
    bytes: Vec<u8>,
}

struct RankSlot {
    /// Live mux-connection id (the session), `None` when down.
    session: Option<u64>,
    /// Incarnation of the live (or most recent) session.
    incarnation: u32,
    /// Last generation this rank acknowledged via resync.
    resynced_gen: u64,
    /// Rank sent a clean Leave; its disconnect is not a death.
    departed: bool,
    /// Successful joins (1 = initial join, >1 = rejoined after restart).
    joins: u32,
}

struct HubState {
    generation: u64,
    ranks: Vec<RankSlot>,
    mailboxes: Vec<VecDeque<HubMsg>>,
    staged: Vec<Option<(u64, Vec<u8>)>>,
    committed: Option<(u64, Vec<Vec<u8>>)>,
    results: Vec<Option<Vec<u8>>>,
    providers: HashMap<String, (u32, u32)>,
    conn_rank: HashMap<u64, u32>,
    log: Vec<String>,
}

/// Parent-side fleet switchboard: generation-tagged mailboxes, the
/// staged→committed checkpoint store, the resync barrier, final results,
/// and the incarnation-checked provider-label registry.
///
/// Implements [`Dispatcher`] for the compact fleet ops and
/// [`SessionSink`] for join/leave/disconnect, so one
/// [`MuxServer`] serves both.
pub struct FleetHub {
    size: usize,
    state: Mutex<HubState>,
    cv: Condvar,
}

/// Server-side cap on one recv long-poll; children re-poll, so this
/// bounds how long a dispatch thread is parked, not the recv itself.
const MAX_SERVER_WAIT: Duration = Duration::from_millis(15);

impl FleetHub {
    /// A hub for a fleet of `size` ranks at generation 0.
    pub fn new(size: usize) -> Arc<Self> {
        assert!(size > 0, "fleet size must be positive");
        Arc::new(FleetHub {
            size,
            state: Mutex::new(HubState {
                generation: 0,
                ranks: (0..size)
                    .map(|_| RankSlot {
                        session: None,
                        incarnation: 0,
                        resynced_gen: 0,
                        departed: false,
                        joins: 0,
                    })
                    .collect(),
                mailboxes: (0..size).map(|_| VecDeque::new()).collect(),
                staged: vec![None; size],
                committed: None,
                results: vec![None; size],
                providers: HashMap::new(),
                conn_rank: HashMap::new(),
                log: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Fleet size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current group generation (bumped on every non-clean disconnect).
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    /// Whether `rank` has a live joined session.
    pub fn present(&self, rank: usize) -> bool {
        let st = self.state.lock().unwrap();
        st.ranks.get(rank).is_some_and(|r| r.session.is_some())
    }

    /// Whether `rank` left cleanly (Leave frame, not a death).
    pub fn departed(&self, rank: usize) -> bool {
        let st = self.state.lock().unwrap();
        st.ranks.get(rank).is_some_and(|r| r.departed)
    }

    /// Latest join for `rank`: `(incarnation, join_count)`, `None` if the
    /// rank never joined.
    pub fn latest_join(&self, rank: usize) -> Option<(u32, u32)> {
        let st = self.state.lock().unwrap();
        let r = st.ranks.get(rank)?;
        (r.joins > 0).then_some((r.incarnation, r.joins))
    }

    /// Step of the last fully committed checkpoint.
    pub fn committed_step(&self) -> Option<u64> {
        self.state
            .lock()
            .unwrap()
            .committed
            .as_ref()
            .map(|(s, _)| *s)
    }

    /// All ranks' final results, once every rank has deposited one.
    pub fn all_results(&self) -> Option<Vec<Vec<u8>>> {
        let st = self.state.lock().unwrap();
        if st.results.iter().all(|r| r.is_some()) {
            Some(st.results.iter().map(|r| r.clone().unwrap()).collect())
        } else {
            None
        }
    }

    /// Resolves a provider label, refusing entries registered by a dead
    /// or superseded incarnation. This is the regression guard for the
    /// stale-label hole: a `tcp+mux://` label registered by incarnation
    /// *k* must stop resolving the instant that process dies, and must
    /// resolve again once incarnation *k+1* re-registers it.
    pub fn resolve_provider(&self, label: &str) -> Option<(u32, u32)> {
        let st = self.state.lock().unwrap();
        let &(rank, inc) = st.providers.get(label)?;
        let slot = st.ranks.get(rank as usize)?;
        (slot.session.is_some() && !slot.departed && slot.incarnation == inc).then_some((rank, inc))
    }

    /// The hub's structured event-log lines (JSONL), oldest first.
    pub fn log_lines(&self) -> Vec<String> {
        self.state.lock().unwrap().log.clone()
    }

    fn log(st: &mut HubState, event: &str, rank: u32, detail: String) {
        st.log.push(format!(
            "{{\"src\":\"hub\",\"event\":\"{event}\",\"rank\":{rank},\"generation\":{},{detail}}}",
            st.generation
        ));
    }

    fn bad(msg: &str) -> SidlError {
        SidlError::user("cca.fleet.BadOp", msg)
    }

    fn header(status: u8, generation: u64) -> Vec<u8> {
        ops::reply(status, generation, 0, |_| {})
    }

    /// A rank on the wire, checked against the fleet size.
    fn rank(&self, rank: u32) -> Result<usize, le::Error> {
        match rank as usize {
            r if r < self.size => Ok(r),
            _ => Err(le::Error::Invalid("rank out of range".into())),
        }
    }

    /// The `(rank, generation)` every op but lookup opens with.
    fn head(&self, r: &mut Reader<'_>) -> Result<(usize, u64), le::Error> {
        Ok((self.rank(r.get()?)?, r.get()?))
    }

    fn op_send(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (src, gen) = self.head(&mut r)?;
        let dst = self.rank(r.get()?)?;
        let (context, tag, bytes) = (r.get()?, r.get()?, r.bytes32()?);
        r.finish()?;
        let mut st = self.state.lock().unwrap();
        if gen != st.generation {
            return Ok(Self::header(ops::ST_STALE, st.generation));
        }
        st.mailboxes[dst].push_back(HubMsg {
            src: src as u32,
            context,
            tag,
            bytes: bytes.to_vec(),
        });
        cca_obs::fleet().record_message_relayed();
        let gen = st.generation;
        drop(st);
        self.cv.notify_all();
        Ok(Self::header(ops::ST_OK, gen))
    }

    fn op_recv(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        let wait_ms: u32 = r.get()?;
        r.finish()?;
        let deadline =
            Instant::now() + Duration::from_millis(u64::from(wait_ms)).min(MAX_SERVER_WAIT);
        let mut st = self.state.lock().unwrap();
        loop {
            if gen != st.generation {
                return Ok(Self::header(ops::ST_STALE, st.generation));
            }
            if let Some(msg) = st.mailboxes[rank].pop_front() {
                let len = 20 + msg.bytes.len();
                return Ok(ops::reply(ops::ST_OK, st.generation, len, |w| {
                    w.put(msg.src);
                    w.put(msg.context);
                    w.put(msg.tag);
                    w.bytes32(&msg.bytes);
                }));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Self::header(ops::ST_EMPTY, st.generation));
            }
            st = self.cv.wait_timeout(st, deadline - now).unwrap().0;
        }
    }

    fn op_checkpoint(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        let (step, bytes): (u64, _) = (r.get()?, r.bytes32()?);
        r.finish()?;
        let mut st = self.state.lock().unwrap();
        if gen != st.generation {
            return Ok(Self::header(ops::ST_STALE, st.generation));
        }
        st.staged[rank] = Some((step, bytes.to_vec()));
        let all_at_step = st
            .staged
            .iter()
            .all(|s| s.as_ref().is_some_and(|(sstep, _)| *sstep == step));
        if all_at_step {
            let blobs = st
                .staged
                .iter_mut()
                .map(|s| s.take().map(|(_, b)| b).unwrap())
                .collect();
            st.committed = Some((step, blobs));
            cca_obs::fleet().record_checkpoint_committed();
            Self::log(
                &mut st,
                "checkpoint_committed",
                rank as u32,
                format!("\"step\":{step}"),
            );
        }
        Ok(Self::header(ops::ST_OK, st.generation))
    }

    fn op_restore(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        r.finish()?;
        let st = self.state.lock().unwrap();
        if gen != st.generation {
            return Ok(Self::header(ops::ST_STALE, st.generation));
        }
        match &st.committed {
            Some((step, blobs)) => {
                let blob = &blobs[rank];
                Ok(ops::reply(
                    ops::ST_OK,
                    st.generation,
                    12 + blob.len(),
                    |w| {
                        w.put(*step);
                        w.bytes32(blob);
                    },
                ))
            }
            None => Ok(Self::header(ops::ST_EMPTY, st.generation)),
        }
    }

    fn op_resync(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        r.finish()?;
        let mut st = self.state.lock().unwrap();
        if gen != st.generation {
            return Ok(Self::header(ops::ST_STALE, st.generation));
        }
        st.ranks[rank].resynced_gen = gen;
        let ready = st
            .ranks
            .iter()
            .all(|r| r.departed || (r.session.is_some() && r.resynced_gen == gen));
        let status = if ready { ops::ST_OK } else { ops::ST_EMPTY };
        if ready {
            drop(st);
            self.cv.notify_all();
            return Ok(Self::header(status, gen));
        }
        Ok(Self::header(status, st.generation))
    }

    fn op_result(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        let bytes = r.bytes32()?;
        r.finish()?;
        let mut st = self.state.lock().unwrap();
        if gen != st.generation {
            return Ok(Self::header(ops::ST_STALE, st.generation));
        }
        st.results[rank] = Some(bytes.to_vec());
        Self::log(
            &mut st,
            "result",
            rank as u32,
            format!("\"len\":{}", bytes.len()),
        );
        Ok(Self::header(ops::ST_OK, st.generation))
    }

    fn op_lookup(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let label = ops::label(&mut r)?;
        r.finish()?;
        let resolved = self.resolve_provider(label);
        let st = self.state.lock().unwrap();
        match resolved {
            Some((rank, inc)) => Ok(ops::reply(ops::ST_OK, st.generation, 8, |w| {
                w.put(rank);
                w.put(inc);
            })),
            None => Ok(Self::header(ops::ST_EMPTY, st.generation)),
        }
    }
}

impl Dispatcher for FleetHub {
    fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let mut r = Reader::new(&request);
        let reply = r.get::<u8>().and_then(|op| match op {
            ops::OP_SEND => self.op_send(r),
            ops::OP_RECV => self.op_recv(r),
            ops::OP_CHECKPOINT => self.op_checkpoint(r),
            ops::OP_RESTORE => self.op_restore(r),
            ops::OP_RESYNC => self.op_resync(r),
            ops::OP_RESULT => self.op_result(r),
            ops::OP_LOOKUP => self.op_lookup(r),
            other => Err(le::Error::Invalid(format!("unknown fleet op {other}"))),
        });
        reply
            .map(Bytes::from)
            .map_err(|e| Self::bad(&format!("bad fleet op: {e}")))
    }
}

impl SessionSink for FleetHub {
    fn join(&self, session: u64, hello: Bytes) -> Result<Vec<u8>, SidlError> {
        let (rank, incarnation, labels) = ops::decode_join_hello(&hello)
            .map_err(|e| Self::bad(&format!("malformed join: {e}")))?;

        let mut st = self.state.lock().unwrap();
        let refuse = |st: &HubState, status: u8| {
            ops::encode_join_ack(&ops::JoinAck {
                status,
                generation: st.generation,
                session,
                size: self.size as u32,
                committed_step: u64::MAX,
            })
        };
        if rank as usize >= self.size {
            return Ok(refuse(&st, ops::JOIN_BAD_RANK));
        }
        let slot = &st.ranks[rank as usize];
        if slot.session.is_some() {
            return Ok(refuse(&st, ops::JOIN_DUPLICATE));
        }
        if incarnation <= slot.incarnation {
            return Ok(refuse(&st, ops::JOIN_STALE_INCARNATION));
        }
        let slot = &mut st.ranks[rank as usize];
        slot.session = Some(session);
        slot.incarnation = incarnation;
        slot.departed = false;
        slot.joins += 1;
        st.conn_rank.insert(session, rank);
        for label in &labels {
            st.providers.insert(label.to_string(), (rank, incarnation));
        }
        let committed_step = st.committed.as_ref().map_or(u64::MAX, |(s, _)| *s);
        Self::log(
            &mut st,
            "join",
            rank,
            format!(
                "\"incarnation\":{incarnation},\"session\":{session},\"labels\":{}",
                labels.len()
            ),
        );
        let ack = ops::encode_join_ack(&ops::JoinAck {
            status: ops::JOIN_OK,
            generation: st.generation,
            session,
            size: self.size as u32,
            committed_step,
        });
        drop(st);
        self.cv.notify_all();
        Ok(ack)
    }

    fn leave(&self, session: u64, goodbye: Bytes) -> Result<Vec<u8>, SidlError> {
        let (rank, incarnation) =
            ops::decode_leave(&goodbye).map_err(|e| Self::bad(&format!("malformed leave: {e}")))?;
        let mut st = self.state.lock().unwrap();
        let matches = st.conn_rank.get(&session) == Some(&rank)
            && (rank as usize) < self.size
            && st.ranks[rank as usize].incarnation == incarnation;
        if matches {
            st.conn_rank.remove(&session);
            let slot = &mut st.ranks[rank as usize];
            slot.session = None;
            slot.departed = true;
            Self::log(
                &mut st,
                "leave",
                rank,
                format!("\"incarnation\":{incarnation}"),
            );
            drop(st);
            self.cv.notify_all();
            Ok(vec![0])
        } else {
            Ok(vec![1])
        }
    }

    fn disconnected(&self, session: u64) {
        let mut st = self.state.lock().unwrap();
        let Some(rank) = st.conn_rank.remove(&session) else {
            return; // refused join, already-left, or superseded session
        };
        let slot = &mut st.ranks[rank as usize];
        if slot.session != Some(session) {
            return;
        }
        let incarnation = slot.incarnation;
        slot.session = None;
        st.generation += 1;
        for mb in &mut st.mailboxes {
            mb.clear();
        }
        for s in &mut st.staged {
            *s = None;
        }
        let departed: Vec<bool> = st.ranks.iter().map(|r| r.departed).collect();
        for (r, res) in st.results.iter_mut().enumerate() {
            if !departed[r] {
                *res = None;
            }
        }
        cca_obs::fleet().record_generation_bump();
        Self::log(
            &mut st,
            "rank_death",
            rank,
            format!("\"incarnation\":{incarnation},\"session\":{session}"),
        );
        let gen = st.generation;
        drop(st);
        self.cv.notify_all();
        cca_obs::flight::record_incident_with_metrics(
            "fleet.rank_death",
            &format!(
                "rank {rank} incarnation {incarnation} session {session} died; group rolled to generation {gen}"
            ),
            Some(&cca_obs::fleet().snapshot().to_json()),
        );
    }
}

// ---------------------------------------------------------------------------
// HubLink — the child-side WireLink
// ---------------------------------------------------------------------------

/// Child-side endpoint: dials the hub over `tcp+mux://`, performs the
/// Join handshake, and implements [`WireLink`] so a
/// [`Comm`] built by [`HubLink::comm`] routes every collective through
/// the hub's mailboxes. One socket (`with_connections(1)`) on purpose:
/// the connection doubles as the liveness signal, so a transparent
/// re-dial would mask a death from the supervisor.
///
/// Every reply carries the group generation. A `ST_STALE` reply means a
/// peer died and the group rolled back: the link adopts the new
/// generation, raises its `interrupted` flag, and surfaces
/// [`ParallelError::Interrupted`] — which panics out of the collective
/// via `CommReduce`'s expect, to be caught by the worker's
/// `catch_unwind` rollback loop.
pub struct HubLink {
    transport: MuxTransport,
    rank: u32,
    size: u32,
    incarnation: u32,
    session: u64,
    gen: AtomicU64,
    committed_step_at_join: Option<u64>,
    park_timeout: Duration,
    poll: Duration,
    interrupted: AtomicBool,
}

fn rpc_fatal(e: SidlError) -> ParallelError {
    ParallelError::Codec(format!("fleet hub rpc failed: {e}"))
}

fn bad_reply(e: le::Error) -> ParallelError {
    ParallelError::Codec(format!("malformed fleet reply: {e}"))
}

impl HubLink {
    /// Dials `addr`, joins as `rank` with `incarnation`, registering
    /// `labels` in the hub's provider registry. `park_timeout` bounds
    /// every recv/resync park (a deadline, never a hang).
    pub fn connect(
        addr: &str,
        rank: u32,
        incarnation: u32,
        labels: &[String],
        park_timeout: Duration,
    ) -> Result<Arc<Self>, ParallelError> {
        let transport = MuxTransport::new(addr)
            .with_connections(1)
            .with_io_timeout(Duration::from_secs(30));
        let hello = ops::encode_join_hello(rank, incarnation, labels);
        let ack = transport
            .submit_join(Bytes::from(hello))
            .map_err(rpc_fatal)?
            .wait()
            .map_err(rpc_fatal)?;
        let ack = ops::decode_join_ack(&ack).map_err(bad_reply)?;
        if ack.status != ops::JOIN_OK {
            return Err(ParallelError::Codec(format!(
                "fleet join refused with status {} (rank {rank} incarnation {incarnation})",
                ack.status
            )));
        }
        Ok(Arc::new(HubLink {
            transport,
            rank,
            size: ack.size,
            incarnation,
            session: ack.session,
            gen: AtomicU64::new(ack.generation),
            committed_step_at_join: (ack.committed_step != u64::MAX).then_some(ack.committed_step),
            park_timeout,
            poll: Duration::from_millis(10),
            interrupted: AtomicBool::new(false),
        }))
    }

    /// This link's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Fleet size reported by the hub at join.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// This process's incarnation number.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Session id the hub assigned at join.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Last generation observed in any hub reply.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Committed checkpoint step advertised in the join ack (a restarted
    /// rank uses this to know a restore is available before asking).
    pub fn committed_step_at_join(&self) -> Option<u64> {
        self.committed_step_at_join
    }

    /// True once any op observed a generation bump; cleared by a
    /// successful [`HubLink::resync`]. The worker's rollback loop checks
    /// this after catching a collective panic to distinguish fleet
    /// interruption (recoverable) from a genuine defect (fatal).
    pub fn interrupted(&self) -> bool {
        self.interrupted.load(Ordering::Acquire)
    }

    /// A communicator routing collectives through this link.
    pub fn comm(self: &Arc<Self>) -> Comm {
        Comm::over_wire(
            Arc::clone(self) as Arc<dyn WireLink>,
            self.rank as usize,
            self.size as usize,
        )
    }

    /// One round-trip to the hub: returns `(status, generation, payload
    /// after the 9-byte header)`. Adopts the replied generation and, on
    /// `ST_STALE`, raises the interrupted flag.
    fn call(&self, req: Vec<u8>) -> Result<(u8, u64, Bytes), ParallelError> {
        let reply = self
            .transport
            .submit(Bytes::from(req))
            .map_err(rpc_fatal)?
            .wait()
            .map_err(rpc_fatal)?;
        let (status, generation) = ops::reply_header(&reply).map_err(bad_reply)?;
        self.gen.store(generation, Ordering::Release);
        if status == ops::ST_STALE {
            self.interrupted.store(true, Ordering::Release);
        }
        Ok((status, generation, reply.slice(ops::REPLY_HEADER_LEN..)))
    }

    /// One round trip whose whole answer is its status: anything but
    /// `ST_OK` means the generation moved under the caller.
    fn call_ok(&self, req: Vec<u8>) -> Result<(), ParallelError> {
        match self.call(req)? {
            (ops::ST_OK, _, _) => Ok(()),
            (_, generation, _) => Err(ParallelError::Interrupted { generation }),
        }
    }

    /// Stages this rank's checkpoint for `step`; the hub promotes it to
    /// committed once every rank staged the same step.
    pub fn checkpoint(&self, step: u64, bytes: &[u8]) -> Result<(), ParallelError> {
        self.call_ok(ops::checkpoint_req(
            self.rank,
            self.generation(),
            step,
            bytes,
        ))
    }

    /// Fetches this rank's slice of the last committed checkpoint.
    pub fn restore(&self) -> Result<Option<(u64, Vec<u8>)>, ParallelError> {
        let gen = self.generation();
        let (status, generation, rest) =
            self.call(ops::plain_req(ops::OP_RESTORE, self.rank, gen))?;
        match status {
            ops::ST_OK => le::decode(&rest, |r| Ok(Some((r.get()?, r.bytes32()?.to_vec()))))
                .map_err(bad_reply),
            ops::ST_EMPTY => Ok(None),
            _ => Err(ParallelError::Interrupted { generation }),
        }
    }

    /// Blocks (bounded by the park timeout) until every live rank has
    /// acknowledged the current generation, adopting newer generations
    /// as they appear. Clears the interrupted flag on success and
    /// returns the generation the group settled on.
    pub fn resync(&self) -> Result<u64, ParallelError> {
        let deadline = Instant::now() + self.park_timeout;
        loop {
            let gen = self.generation();
            let (status, generation, _) =
                self.call(ops::plain_req(ops::OP_RESYNC, self.rank, gen))?;
            match status {
                ops::ST_OK => {
                    self.interrupted.store(false, Ordering::Release);
                    return Ok(generation);
                }
                // ST_EMPTY: peers still rolling back; ST_STALE: another
                // death mid-resync — `call` already adopted the new
                // generation, so just go around again.
                _ => {
                    if Instant::now() >= deadline {
                        return Err(ParallelError::Timeout {
                            waited_ms: self.park_timeout.as_millis() as u64,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Deposits this rank's final result with the hub.
    pub fn deposit_result(&self, bytes: &[u8]) -> Result<(), ParallelError> {
        self.call_ok(ops::result_req(self.rank, self.generation(), bytes))
    }

    /// Resolves a provider label through the hub's incarnation-checked
    /// registry: `Some((rank, incarnation))` only while that incarnation
    /// is alive.
    pub fn lookup_provider(&self, label: &str) -> Result<Option<(u32, u32)>, ParallelError> {
        let (status, _, rest) = self.call(ops::lookup_req(label))?;
        if status != ops::ST_OK {
            return Ok(None);
        }
        le::decode(&rest, |r| Ok(Some((r.get()?, r.get()?)))).map_err(bad_reply)
    }

    /// Clean departure: tells the hub this rank is done so its
    /// disconnect is not treated as a death.
    pub fn leave(&self) -> Result<(), ParallelError> {
        let goodbye = ops::encode_leave(self.rank, self.incarnation);
        self.transport
            .submit_leave(Bytes::from(goodbye))
            .map_err(rpc_fatal)?
            .wait()
            .map_err(rpc_fatal)?;
        Ok(())
    }
}

impl WireLink for HubLink {
    fn send(
        &self,
        dst_world: usize,
        context: u32,
        tag: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ParallelError> {
        let gen = self.generation();
        self.call_ok(ops::send_req(
            self.rank,
            gen,
            dst_world as u32,
            context,
            tag,
            &bytes,
        ))
    }

    fn recv(&self) -> Result<WireMsg, ParallelError> {
        let deadline = Instant::now() + self.park_timeout;
        loop {
            let gen = self.generation();
            let wait_ms = self.poll.as_millis() as u32;
            let (status, generation, rest) = self.call(ops::recv_req(self.rank, gen, wait_ms))?;
            match status {
                ops::ST_OK => {
                    return le::decode(&rest, |r| {
                        Ok(WireMsg {
                            src_world: r.get::<u32>()? as usize,
                            context: r.get()?,
                            tag: r.get()?,
                            bytes: r.bytes32()?.to_vec(),
                        })
                    })
                    .map_err(bad_reply);
                }
                ops::ST_EMPTY => {
                    if Instant::now() >= deadline {
                        return Err(ParallelError::Timeout {
                            waited_ms: self.park_timeout.as_millis() as u64,
                        });
                    }
                }
                _ => return Err(ParallelError::Interrupted { generation }),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Restart backoff
// ---------------------------------------------------------------------------

/// Decorrelated-jitter restart backoff: the core [`BackoffSchedule`],
/// plus a `reset` — a rank that reaches healthy gets its schedule rewound
/// so the next death starts from the base again.
#[derive(Debug, Clone)]
pub struct RestartBackoff {
    fresh: BackoffSchedule,
    schedule: BackoffSchedule,
}

impl RestartBackoff {
    /// A schedule drawing from `[base_ns, cap_ns]`, seeded for
    /// determinism (see [`rank_backoff_seed`]).
    pub fn new(base_ns: u64, cap_ns: u64, seed: u64) -> Self {
        let fresh = RetryPolicy::new(u32::MAX, base_ns, cap_ns)
            .with_jitter_seed(seed)
            .schedule();
        RestartBackoff {
            schedule: fresh.clone(),
            fresh,
        }
    }

    /// The next restart delay in nanoseconds.
    pub fn next_delay_ns(&mut self) -> u64 {
        self.schedule.next().expect("a backoff schedule never ends")
    }

    /// Rewinds the schedule to its initial state (rank became healthy).
    pub fn reset(&mut self) {
        self.schedule = self.fresh.clone();
    }
}

// ---------------------------------------------------------------------------
// Launchers
// ---------------------------------------------------------------------------

/// What to launch: one rank incarnation of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Rank in `0..size`.
    pub rank: u32,
    /// Incarnation (1 = first launch).
    pub incarnation: u32,
    /// Fleet size.
    pub size: u32,
    /// Hub address the child must dial back to.
    pub addr: String,
}

/// A launched child the supervisor can poll, kill, and reap. `kill`
/// must be idempotent and `wait_exit` must actually reap (no zombies).
pub trait ProcessHandle: Send {
    /// OS pid or synthetic id, for logs.
    fn id(&self) -> u64;
    /// Non-blocking exit poll: `Some(status)` once the child exited.
    /// Signal deaths are reported as the negated signal number
    /// (`kill -9` → `-9`), mirroring waitpid conventions.
    fn poll_exit(&mut self) -> Option<i32>;
    /// Delivers SIGKILL (or the mock equivalent).
    fn kill(&mut self);
    /// Blocks until exit and reaps, returning the status.
    fn wait_exit(&mut self) -> i32;
}

/// Launches rank child processes.
pub trait RankLauncher: Send + Sync {
    /// Starts one rank incarnation.
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>>;
}

/// Re-execs the current binary with the `CCA_FLEET_*` environment set;
/// the child detects fleet mode via [`fleet_rank_env`].
pub struct ExecLauncher {
    exe: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl ExecLauncher {
    /// A launcher re-execing `std::env::current_exe()`.
    pub fn current_exe() -> std::io::Result<Self> {
        Ok(ExecLauncher {
            exe: std::env::current_exe()?,
            args: Vec::new(),
            envs: Vec::new(),
        })
    }

    /// Appends a command-line argument for every child.
    pub fn with_arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Sets an extra environment variable for every child.
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

fn exit_code(status: std::process::ExitStatus) -> i32 {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return -sig;
        }
    }
    status.code().unwrap_or(-1)
}

struct ChildHandle {
    child: std::process::Child,
}

impl ProcessHandle for ChildHandle {
    fn id(&self) -> u64 {
        u64::from(self.child.id())
    }

    fn poll_exit(&mut self) -> Option<i32> {
        match self.child.try_wait() {
            Ok(Some(status)) => Some(exit_code(status)),
            Ok(None) => None,
            Err(_) => Some(-1),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
    }

    fn wait_exit(&mut self) -> i32 {
        self.child.wait().map(exit_code).unwrap_or(-1)
    }
}

impl RankLauncher for ExecLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(&self.args)
            .env(FLEET_RANK_ENV, spec.rank.to_string())
            .env(FLEET_SIZE_ENV, spec.size.to_string())
            .env(FLEET_ADDR_ENV, &spec.addr)
            .env(FLEET_INCARNATION_ENV, spec.incarnation.to_string());
        for (k, v) in &self.envs {
            cmd.env(k, v);
        }
        Ok(Box::new(ChildHandle {
            child: cmd.spawn()?,
        }))
    }
}

/// One scripted mock child (tests): exits when told to.
pub struct MockProcess {
    /// Rank this process was launched for.
    pub rank: u32,
    /// Incarnation it was launched as.
    pub incarnation: u32,
    exit: Mutex<Option<i32>>,
    killed: AtomicBool,
}

impl MockProcess {
    /// Scripts this process to exit with `status` (e.g. `-9`).
    pub fn exit_with(&self, status: i32) {
        *self.exit.lock().unwrap() = Some(status);
    }

    /// Whether the supervisor delivered a kill.
    pub fn was_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }
}

/// In-test launcher recording every spawn as a scriptable
/// [`MockProcess`] — no OS processes, fully deterministic under
/// `MockClock`.
#[derive(Default)]
pub struct MockLauncher {
    spawned: Mutex<Vec<Arc<MockProcess>>>,
}

impl MockLauncher {
    /// An empty mock launcher.
    pub fn new() -> Arc<Self> {
        Arc::new(MockLauncher::default())
    }

    /// Every process launched so far, in launch order.
    pub fn spawned(&self) -> Vec<Arc<MockProcess>> {
        self.spawned.lock().unwrap().clone()
    }

    /// The most recent launch for `rank`.
    pub fn last_for_rank(&self, rank: u32) -> Option<Arc<MockProcess>> {
        self.spawned
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|p| p.rank == rank)
            .cloned()
    }
}

struct MockHandle {
    proc: Arc<MockProcess>,
}

impl ProcessHandle for MockHandle {
    fn id(&self) -> u64 {
        u64::from(self.proc.rank) << 32 | u64::from(self.proc.incarnation)
    }

    fn poll_exit(&mut self) -> Option<i32> {
        *self.proc.exit.lock().unwrap()
    }

    fn kill(&mut self) {
        self.proc.killed.store(true, Ordering::Release);
        let mut exit = self.proc.exit.lock().unwrap();
        if exit.is_none() {
            *exit = Some(-9);
        }
    }

    fn wait_exit(&mut self) -> i32 {
        loop {
            if let Some(status) = *self.proc.exit.lock().unwrap() {
                return status;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl RankLauncher for MockLauncher {
    fn launch(&self, spec: &LaunchSpec) -> std::io::Result<Box<dyn ProcessHandle>> {
        let proc = Arc::new(MockProcess {
            rank: spec.rank,
            incarnation: spec.incarnation,
            exit: Mutex::new(None),
            killed: AtomicBool::new(false),
        });
        self.spawned.lock().unwrap().push(Arc::clone(&proc));
        Ok(Box::new(MockHandle { proc }))
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// One entry in the supervisor's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// A rank incarnation was launched.
    Launched {
        /// Rank launched.
        rank: u32,
        /// Incarnation launched.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A running rank passed its health window.
    Healthy {
        /// Rank that became healthy.
        rank: u32,
        /// Its incarnation.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A rank exited without a clean departure.
    Died {
        /// Rank that died.
        rank: u32,
        /// Incarnation that died.
        incarnation: u32,
        /// Exit status (negated signal for signal deaths).
        status: i32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A restart was scheduled under backoff.
    RestartScheduled {
        /// Rank to restart.
        rank: u32,
        /// The incarnation the restart will launch.
        incarnation: u32,
        /// Backoff delay before the launch, ns.
        delay_ns: u64,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A restarted rank completed the hub join handshake.
    Rejoined {
        /// Rank that rejoined.
        rank: u32,
        /// Its new incarnation.
        incarnation: u32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
    /// A rank stopped for good (clean exit, departure, or shutdown).
    Stopped {
        /// Rank that stopped.
        rank: u32,
        /// Final exit status.
        status: i32,
        /// Supervisor clock time, ns.
        at_ns: u64,
    },
}

impl FleetEvent {
    /// One JSONL line for the supervisor event log.
    pub fn to_json(&self) -> String {
        match self {
            FleetEvent::Launched { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"launched\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Healthy { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"healthy\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Died { rank, incarnation, status, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"died\",\"rank\":{rank},\"incarnation\":{incarnation},\"status\":{status},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::RestartScheduled { rank, incarnation, delay_ns, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"restart_scheduled\",\"rank\":{rank},\"incarnation\":{incarnation},\"delay_ns\":{delay_ns},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Rejoined { rank, incarnation, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"rejoined\",\"rank\":{rank},\"incarnation\":{incarnation},\"at_ns\":{at_ns}}}"
            ),
            FleetEvent::Stopped { rank, status, at_ns } => format!(
                "{{\"src\":\"supervisor\",\"event\":\"stopped\",\"rank\":{rank},\"status\":{status},\"at_ns\":{at_ns}}}"
            ),
        }
    }
}

/// Fleet tuning. Defaults suit the in-repo integration tests: fast
/// restarts, short health window.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of ranks.
    pub size: usize,
    /// Hub bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Fleet seed: mixes into per-rank backoff jitter streams.
    pub seed: u64,
    /// Backoff base, ns.
    pub base_backoff_ns: u64,
    /// Backoff cap, ns.
    pub max_backoff_ns: u64,
    /// A restarted rank counts healthy after surviving this long.
    pub healthy_after_ns: u64,
    /// Require a completed hub join (not just survival) for healthy;
    /// mock-launcher tests turn this off since nothing ever dials in.
    pub require_join_for_healthy: bool,
}

impl FleetConfig {
    /// Defaults for a fleet of `size` ranks.
    pub fn new(size: usize) -> Self {
        FleetConfig {
            size,
            addr: "127.0.0.1:0".to_string(),
            seed: 0x5eed_f1ee,
            base_backoff_ns: 50_000_000,
            max_backoff_ns: 2_000_000_000,
            healthy_after_ns: 200_000_000,
            require_join_for_healthy: true,
        }
    }
}

enum SlotState {
    Idle,
    Running {
        handle: Box<dyn ProcessHandle>,
        started_ns: u64,
        healthy: bool,
    },
    Waiting {
        restart_at_ns: u64,
    },
    Stopped {
        status: i32,
    },
}

struct Slot {
    state: SlotState,
    incarnation: u32,
    backoff: RestartBackoff,
    breaker: CircuitBreaker,
    /// Highest incarnation whose hub join we already turned into a
    /// Rejoined event.
    seen_join_inc: u32,
}

/// Launches and supervises the rank fleet: exit polling, per-rank
/// circuit-breaker quarantine, decorrelated-jitter restarts, rejoin
/// bookkeeping, and zombie-free shutdown. Drive it with
/// [`FleetSupervisor::tick`] under a [`MockClock`]
/// (deterministic tests) or [`FleetSupervisor::start_monitor`] under the
/// [`SystemClock`] (real fleets).
///
/// [`MockClock`]: cca_core::resilience::MockClock
/// [`SystemClock`]: cca_core::resilience::SystemClock
pub struct FleetSupervisor {
    config: FleetConfig,
    hub: Arc<FleetHub>,
    server: Arc<MuxServer>,
    launcher: Arc<dyn RankLauncher>,
    clock: Arc<dyn Clock>,
    slots: Mutex<Vec<Slot>>,
    events: Mutex<Vec<FleetEvent>>,
    framework: Mutex<Option<Weak<Framework>>>,
    stop: AtomicBool,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FleetSupervisor {
    /// Binds the hub server and prepares (but does not launch) the
    /// fleet. Dispatch threads scale with fleet size so parked recv
    /// long-polls can't starve sends.
    pub fn new(
        config: FleetConfig,
        launcher: Arc<dyn RankLauncher>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Arc<Self>> {
        let hub = FleetHub::new(config.size);
        let server = MuxServer::bind_with(
            config.addr.as_str(),
            Arc::clone(&hub) as Arc<dyn Dispatcher>,
            MuxServerConfig {
                dispatch_threads: config.size * 2 + 2,
                ..MuxServerConfig::default()
            },
        )?;
        server.set_session_sink(Arc::clone(&hub) as Arc<dyn SessionSink>);
        let slots = (0..config.size)
            .map(|rank| Slot {
                state: SlotState::Idle,
                incarnation: 0,
                backoff: RestartBackoff::new(
                    config.base_backoff_ns,
                    config.max_backoff_ns,
                    rank_backoff_seed(config.seed, rank),
                ),
                breaker: CircuitBreaker::new(
                    BreakerPolicy::new(1, (config.base_backoff_ns / 2).max(1)),
                    Arc::clone(&clock),
                ),
                seen_join_inc: 0,
            })
            .collect();
        Ok(Arc::new(FleetSupervisor {
            config,
            hub,
            server,
            launcher,
            clock,
            slots: Mutex::new(slots),
            events: Mutex::new(Vec::new()),
            framework: Mutex::new(None),
            stop: AtomicBool::new(false),
            monitor: Mutex::new(None),
        }))
    }

    /// The hub's actual bound address (`host:port`).
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// The fleet hub.
    pub fn hub(&self) -> &Arc<FleetHub> {
        &self.hub
    }

    /// A copy of the supervision event log.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Current breaker state for `rank`'s restart quarantine.
    pub fn breaker_state(&self, rank: usize) -> BreakerState {
        self.slots.lock().unwrap()[rank].breaker.state()
    }

    /// Routes `RankDied`/`RankRejoined` config events into a framework's
    /// event service.
    pub fn attach_framework(&self, framework: &Arc<Framework>) {
        *self.framework.lock().unwrap() = Some(Arc::downgrade(framework));
    }

    fn emit_event(&self, event: ConfigEvent) {
        let fw = self
            .framework
            .lock()
            .unwrap()
            .as_ref()
            .and_then(Weak::upgrade);
        if let Some(fw) = fw {
            fw.emit(event);
        }
    }

    fn push_event(&self, ev: FleetEvent) {
        self.events.lock().unwrap().push(ev);
    }

    fn launch_slot(&self, rank: usize, slot: &mut Slot, now: u64) {
        let incarnation = slot.incarnation + 1;
        let spec = LaunchSpec {
            rank: rank as u32,
            incarnation,
            size: self.config.size as u32,
            addr: self.addr(),
        };
        match self.launcher.launch(&spec) {
            Ok(handle) => {
                slot.incarnation = incarnation;
                slot.state = SlotState::Running {
                    handle,
                    started_ns: now,
                    healthy: false,
                };
                cca_obs::fleet().record_launch();
                self.push_event(FleetEvent::Launched {
                    rank: rank as u32,
                    incarnation,
                    at_ns: now,
                });
            }
            Err(_) => {
                // Spawn failure behaves like an instant death: backoff
                // and retry, the breaker keeps the cadence honest.
                slot.breaker.record_failure();
                let delay = slot.backoff.next_delay_ns();
                slot.state = SlotState::Waiting {
                    restart_at_ns: now.saturating_add(delay),
                };
                self.push_event(FleetEvent::RestartScheduled {
                    rank: rank as u32,
                    incarnation: incarnation + 1,
                    delay_ns: delay,
                    at_ns: now,
                });
            }
        }
    }

    /// Launches every rank at incarnation 1.
    pub fn start(&self) {
        let now = self.clock.now_ns();
        let mut slots = self.slots.lock().unwrap();
        for (rank, slot) in slots.iter_mut().enumerate() {
            if matches!(slot.state, SlotState::Idle) {
                self.launch_slot(rank, slot, now);
            }
        }
    }

    /// One supervision pass: reap exits, schedule restarts, admit
    /// probes through each rank's breaker, record health and rejoins.
    /// Deterministic: all timing comes from the injected [`Clock`].
    pub fn tick(&self) {
        let now = self.clock.now_ns();
        let mut slots = self.slots.lock().unwrap();
        for (rank, slot) in slots.iter_mut().enumerate() {
            match &mut slot.state {
                SlotState::Running {
                    handle,
                    started_ns,
                    healthy,
                } => {
                    if let Some(status) = handle.poll_exit() {
                        let incarnation = slot.incarnation;
                        if self.stop.load(Ordering::Acquire)
                            || self.hub.departed(rank)
                            || status == 0
                        {
                            slot.state = SlotState::Stopped { status };
                            self.push_event(FleetEvent::Stopped {
                                rank: rank as u32,
                                status,
                                at_ns: now,
                            });
                            continue;
                        }
                        cca_obs::fleet().record_death();
                        slot.breaker.record_failure();
                        let delay = slot.backoff.next_delay_ns();
                        slot.state = SlotState::Waiting {
                            restart_at_ns: now.saturating_add(delay),
                        };
                        cca_obs::fleet().record_restart();
                        self.push_event(FleetEvent::Died {
                            rank: rank as u32,
                            incarnation,
                            status,
                            at_ns: now,
                        });
                        self.push_event(FleetEvent::RestartScheduled {
                            rank: rank as u32,
                            incarnation: incarnation + 1,
                            delay_ns: delay,
                            at_ns: now,
                        });
                        self.emit_event(ConfigEvent::RankDied {
                            rank: rank as u64,
                            incarnation: u64::from(incarnation),
                            generation: self.hub.generation(),
                        });
                        continue;
                    }
                    if let Some((jinc, _)) = self.hub.latest_join(rank) {
                        if jinc == slot.incarnation && slot.seen_join_inc < jinc {
                            slot.seen_join_inc = jinc;
                            if jinc > 1 {
                                cca_obs::fleet().record_rejoin();
                                self.push_event(FleetEvent::Rejoined {
                                    rank: rank as u32,
                                    incarnation: jinc,
                                    at_ns: now,
                                });
                                self.emit_event(ConfigEvent::RankRejoined {
                                    rank: rank as u64,
                                    incarnation: u64::from(jinc),
                                    generation: self.hub.generation(),
                                });
                            }
                        }
                    }
                    let joined_ok = !self.config.require_join_for_healthy || self.hub.present(rank);
                    if !*healthy
                        && now.saturating_sub(*started_ns) >= self.config.healthy_after_ns
                        && joined_ok
                    {
                        *healthy = true;
                        slot.breaker.record_success();
                        slot.backoff.reset();
                        self.push_event(FleetEvent::Healthy {
                            rank: rank as u32,
                            incarnation: slot.incarnation,
                            at_ns: now,
                        });
                    }
                }
                SlotState::Waiting { restart_at_ns } => {
                    if now >= *restart_at_ns
                        && !self.stop.load(Ordering::Acquire)
                        && slot.breaker.admit()
                    {
                        self.launch_slot(rank, slot, now);
                    }
                }
                SlotState::Idle | SlotState::Stopped { .. } => {}
            }
        }
    }

    /// Spawns a real-time monitor thread calling [`FleetSupervisor::tick`]
    /// every `interval` until shutdown.
    pub fn start_monitor(self: &Arc<Self>, interval: Duration) {
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("cca-fleet-monitor".into())
            .spawn(move || {
                while !me.stop.load(Ordering::Acquire) {
                    me.tick();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn fleet monitor thread");
        *self.monitor.lock().unwrap() = Some(handle);
    }

    /// Delivers SIGKILL to `rank`'s current incarnation (fault
    /// injection). Returns false if the rank is not running.
    pub fn kill_rank(&self, rank: usize) -> bool {
        let mut slots = self.slots.lock().unwrap();
        match &mut slots[rank].state {
            SlotState::Running { handle, .. } => {
                handle.kill();
                true
            }
            _ => false,
        }
    }

    /// Stops supervision, kills and reaps every child (collecting exit
    /// statuses — zero zombies), shuts the hub server down, and writes
    /// the event log for forensics. Returns `(rank, status)` for every
    /// rank that ever ran; `None` for ranks with no live process.
    pub fn shutdown(&self) -> Vec<(usize, Option<i32>)> {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.monitor.lock().unwrap().take() {
            let _ = handle.join();
        }
        let now = self.clock.now_ns();
        let mut statuses = Vec::with_capacity(self.config.size);
        {
            let mut slots = self.slots.lock().unwrap();
            for (rank, slot) in slots.iter_mut().enumerate() {
                let status = match &mut slot.state {
                    SlotState::Running { handle, .. } => {
                        handle.kill();
                        let status = handle.wait_exit();
                        self.push_event(FleetEvent::Stopped {
                            rank: rank as u32,
                            status,
                            at_ns: now,
                        });
                        Some(status)
                    }
                    SlotState::Stopped { status } => Some(*status),
                    SlotState::Idle | SlotState::Waiting { .. } => None,
                };
                if let Some(s) = status {
                    slot.state = SlotState::Stopped { status: s };
                }
                statuses.push((rank, status));
            }
        }
        self.server.shutdown();
        self.write_event_log();
        statuses
    }

    /// Writes the supervisor + hub event log as JSONL under
    /// `CCA_FLIGHT_DIR` (no-op when unset). CI uploads this next to the
    /// flight-recorder incidents on a red fleet lane.
    pub fn write_event_log(&self) -> Option<PathBuf> {
        let dir = std::env::var_os("CCA_FLIGHT_DIR")?;
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("fleet_supervisor_{}.jsonl", std::process::id()));
        let mut lines: Vec<String> = self
            .events
            .lock()
            .unwrap()
            .iter()
            .map(FleetEvent::to_json)
            .collect();
        lines.extend(self.hub.log_lines());
        lines.push(cca_obs::fleet().snapshot().to_json());
        std::fs::write(&path, lines.join("\n") + "\n").ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::resilience::{MockClock, RetryPolicy};

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

    #[test]
    fn restart_backoff_matches_core_schedule_and_resets() {
        let (base, cap, seed) = (1_000_000u64, 50_000_000u64, 0xfeed_beefu64);
        let core: Vec<u64> = RetryPolicy::new(16, base, cap)
            .with_jitter_seed(seed)
            .schedule()
            .take(8)
            .collect();
        let mut mine = RestartBackoff::new(base, cap, seed);
        let drawn: Vec<u64> = (0..8).map(|_| mine.next_delay_ns()).collect();
        assert_eq!(drawn, core, "fleet backoff must mirror the core schedule");
        assert!(drawn.iter().all(|&d| (base..=cap).contains(&d)));

        mine.reset();
        assert_eq!(mine.next_delay_ns(), core[0], "reset rewinds the stream");

        let mut other = RestartBackoff::new(base, cap, seed ^ 1);
        let other_drawn: Vec<u64> = (0..8).map(|_| other.next_delay_ns()).collect();
        assert_ne!(drawn, other_drawn, "different seeds draw different jitter");

        // Per-rank seeds decorrelate too.
        assert_ne!(rank_backoff_seed(42, 0), rank_backoff_seed(42, 1));
        assert_eq!(rank_backoff_seed(42, 3), rank_backoff_seed(42, 3));
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
        let expected =
            RestartBackoff::new(10_000_000, 80_000_000, rank_backoff_seed(42, 0)).next_delay_ns();
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

    #[test]
    fn double_crash_during_half_open_probe_reopens_the_breaker() {
        let (sup, launcher, clock) = mock_fleet(1);
        sup.start();
        clock.advance_ns(5_000_000);
        sup.tick(); // healthy; backoff rewound

        let mut schedule = RestartBackoff::new(10_000_000, 80_000_000, rank_backoff_seed(42, 0));
        let first = schedule.next_delay_ns();
        let second = schedule.next_delay_ns();

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
