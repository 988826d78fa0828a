//! `FleetHub` — the parent-side switchboard.

use super::ops;
use bytes::Bytes;
use cca_data::le::{self, Reader};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxServerConfig, SessionSink};
use cca_sidl::SidlError;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Rank sent a clean Leave, or dropped once every result was in;
    /// its disconnect is not a death.
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

impl HubState {
    /// Every rank has deposited its final result: the run is over.
    fn complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// Appends one JSONL event line.
    fn log(&mut self, event: &str, rank: impl std::fmt::Display, detail: String) {
        self.log.push(format!(
            "{{\"src\":\"hub\",\"event\":\"{event}\",\"rank\":{rank},\"generation\":{},{detail}}}",
            self.generation
        ));
    }
}

/// Parent-side fleet switchboard: generation-tagged mailboxes, the
/// staged→committed checkpoint store, the resync barrier, final results,
/// and the incarnation-checked provider-label registry.
///
/// Implements [`Dispatcher`] for the compact fleet ops and
/// [`SessionSink`] for join/leave/disconnect, so one
/// [`MuxServer`] serves both.
///
/// [`MuxServer`]: cca_rpc::MuxServer
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

    /// A hub for `size` ranks served over `tcp+mux://` at `addr` (`host:0`
    /// picks a free port): the hub is the server's dispatcher and its
    /// session sink. Dispatch threads scale with fleet size, two per rank
    /// plus two, so recv long-polls parked on every rank cannot starve
    /// the sends that would end them.
    pub fn serve(size: usize, addr: &str) -> std::io::Result<(Arc<Self>, Arc<MuxServer>)> {
        let hub = Self::new(size);
        let server = MuxServer::bind_with(
            addr,
            Arc::clone(&hub) as Arc<dyn Dispatcher>,
            MuxServerConfig {
                dispatch_threads: size * 2 + 2,
                ..MuxServerConfig::default()
            },
        )?;
        server.set_session_sink(Arc::clone(&hub) as Arc<dyn SessionSink>);
        Ok((hub, server))
    }

    /// Fleet size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current group generation (bumped on every non-clean disconnect).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Whether `rank` has a live joined session.
    pub fn present(&self, rank: usize) -> bool {
        let st = self.state.lock();
        st.ranks.get(rank).is_some_and(|r| r.session.is_some())
    }

    /// Whether `rank` left cleanly (a Leave frame, or a disconnect once
    /// every result was in — not a death).
    pub fn departed(&self, rank: usize) -> bool {
        let st = self.state.lock();
        st.ranks.get(rank).is_some_and(|r| r.departed)
    }

    /// Latest join for `rank`: `(incarnation, join_count)`, `None` if the
    /// rank never joined.
    pub fn latest_join(&self, rank: usize) -> Option<(u32, u32)> {
        let st = self.state.lock();
        let r = st.ranks.get(rank)?;
        (r.joins > 0).then_some((r.incarnation, r.joins))
    }

    /// Step of the last fully committed checkpoint.
    pub fn committed_step(&self) -> Option<u64> {
        self.state.lock().committed.as_ref().map(|(s, _)| *s)
    }

    /// All ranks' final results, once every rank has deposited one.
    pub fn all_results(&self) -> Option<Vec<Vec<u8>>> {
        self.state.lock().results.iter().cloned().collect()
    }

    /// Resolves a provider label, refusing entries registered by a dead
    /// or superseded incarnation. This is the regression guard for the
    /// stale-label hole: a `tcp+mux://` label registered by incarnation
    /// *k* must stop resolving the instant that process dies, and must
    /// resolve again once incarnation *k+1* re-registers it.
    pub fn resolve_provider(&self, label: &str) -> Option<(u32, u32)> {
        let st = self.state.lock();
        let &(rank, inc) = st.providers.get(label)?;
        let slot = st.ranks.get(rank as usize)?;
        (slot.session.is_some() && !slot.departed && slot.incarnation == inc).then_some((rank, inc))
    }

    /// The hub's structured event-log lines (JSONL), oldest first.
    pub fn log_lines(&self) -> Vec<String> {
        self.state.lock().log.clone()
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
        let mut st = self.state.lock();
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
        let mut st = self.state.lock();
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
            st = self.cv.wait_timeout(st, deadline - now).0;
        }
    }

    fn op_checkpoint(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        let (step, bytes): (u64, _) = (r.get()?, r.bytes32()?);
        r.finish()?;
        let mut st = self.state.lock();
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
                .filter_map(|s| s.take().map(|(_, b)| b))
                .collect();
            st.committed = Some((step, blobs));
            cca_obs::fleet().record_checkpoint_committed();
            st.log("checkpoint_committed", rank, format!("\"step\":{step}"));
        }
        Ok(Self::header(ops::ST_OK, st.generation))
    }

    fn op_restore(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        r.finish()?;
        let st = self.state.lock();
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
        let mut st = self.state.lock();
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

    /// Records a rank's final result. `ST_OK` once every rank has one —
    /// the set is then frozen — `ST_EMPTY` while peers still owe theirs:
    /// the depositor re-sends until `ST_OK`, so no rank leaves while a
    /// peer may still need it in a collective.
    fn op_result(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let (rank, gen) = self.head(&mut r)?;
        let bytes = r.bytes32()?;
        r.finish()?;
        let mut st = self.state.lock();
        if !st.complete() {
            if gen != st.generation {
                return Ok(Self::header(ops::ST_STALE, st.generation));
            }
            if st.results[rank].replace(bytes.to_vec()).is_none() {
                st.log("result", rank, format!("\"len\":{}", bytes.len()));
            }
        }
        let status = if st.complete() {
            ops::ST_OK
        } else {
            ops::ST_EMPTY
        };
        Ok(Self::header(status, st.generation))
    }

    fn op_lookup(&self, mut r: Reader<'_>) -> Result<Vec<u8>, le::Error> {
        let label = ops::label(&mut r)?;
        r.finish()?;
        let resolved = self.resolve_provider(label);
        let st = self.state.lock();
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

        let mut st = self.state.lock();
        let status = match st.ranks.get(rank as usize) {
            None => ops::JOIN_BAD_RANK,
            Some(slot) if slot.session.is_some() => ops::JOIN_DUPLICATE,
            Some(slot) if incarnation <= slot.incarnation => ops::JOIN_STALE_INCARNATION,
            Some(_) => ops::JOIN_OK,
        };
        let mut committed_step = u64::MAX;
        if status == ops::JOIN_OK {
            let slot = &mut st.ranks[rank as usize];
            slot.session = Some(session);
            slot.incarnation = incarnation;
            slot.departed = false;
            slot.joins += 1;
            st.conn_rank.insert(session, rank);
            for label in &labels {
                st.providers.insert(label.to_string(), (rank, incarnation));
            }
            committed_step = st.committed.as_ref().map_or(u64::MAX, |(s, _)| *s);
            st.log(
                "join",
                rank,
                format!(
                    "\"incarnation\":{incarnation},\"session\":{session},\"labels\":{}",
                    labels.len()
                ),
            );
        }
        let ack = ops::encode_join_ack(&ops::JoinAck {
            status,
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
        let mut st = self.state.lock();
        let matches = st.conn_rank.get(&session) == Some(&rank)
            && (rank as usize) < self.size
            && st.ranks[rank as usize].incarnation == incarnation;
        if matches {
            st.conn_rank.remove(&session);
            let slot = &mut st.ranks[rank as usize];
            slot.session = None;
            slot.departed = true;
            st.log("leave", rank, format!("\"incarnation\":{incarnation}"));
            drop(st);
            self.cv.notify_all();
            Ok(vec![0])
        } else {
            Ok(vec![1])
        }
    }

    fn disconnected(&self, session: u64) {
        let mut st = self.state.lock();
        let Some(rank) = st.conn_rank.remove(&session) else {
            return; // refused join, already-left, or superseded session
        };
        let complete = st.complete();
        let slot = &mut st.ranks[rank as usize];
        if slot.session != Some(session) {
            return;
        }
        let incarnation = slot.incarnation;
        slot.session = None;
        if complete {
            // Every result is in: the death loses nothing, so it is a
            // departure, not a rollback.
            slot.departed = true;
            return;
        }
        st.generation += 1;
        st.mailboxes.iter_mut().for_each(VecDeque::clear);
        st.staged.fill(None);
        // No rank leaves before every result is in, so none is kept.
        st.results.fill(None);
        cca_obs::fleet().record_generation_bump();
        st.log(
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
