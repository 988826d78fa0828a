//! The child side: `HubLink`, a `WireLink` to the hub, and `run_worker`,
//! the rollback loop every rank runs over it.

use super::ops;
use bytes::Bytes;
use cca_core::CcaError;
use cca_data::le;
use cca_parallel::{Comm, ParallelError, WireLink, WireMsg};
use cca_rpc::MuxTransport;
use cca_sidl::SidlError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Child-side endpoint: dials the hub over `tcp+mux://`, performs the
/// Join handshake, and implements [`WireLink`] so a
/// [`Comm`] built by [`HubLink::comm`] routes every collective through
/// the hub's mailboxes. One socket (`with_connections(1)`) on purpose:
/// the connection doubles as the liveness signal, so a transparent
/// re-dial would mask a death from the supervisor.
///
/// Every reply carries the group generation. A `ST_STALE` reply means a
/// peer died and the group rolled back: the link adopts the new
/// generation and returns [`ParallelError::Interrupted`], which the
/// collective, the solver and the worker's step pass up as a value until
/// [`run_worker`] sees it and rolls back.
pub struct HubLink {
    transport: MuxTransport,
    rank: u32,
    size: u32,
    incarnation: u32,
    session: u64,
    gen: AtomicU64,
    park_timeout: Duration,
}

/// How long the hub may hold one recv request open.
const RECV_WAIT_MS: u32 = 10;

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
            park_timeout,
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

    /// A communicator routing collectives through this link.
    pub fn comm(self: &Arc<Self>) -> Comm {
        Comm::over_wire(
            Arc::clone(self) as Arc<dyn WireLink>,
            self.rank as usize,
            self.size as usize,
        )
    }

    /// One round-trip to the hub: returns `(status, generation, payload
    /// after the 9-byte header)`. Adopts the replied generation.
    fn call(&self, req: Vec<u8>) -> Result<(u8, u64, Bytes), ParallelError> {
        let reply = self
            .transport
            .submit(Bytes::from(req))
            .map_err(rpc_fatal)?
            .wait()
            .map_err(rpc_fatal)?;
        let (status, generation) = ops::reply_header(&reply).map_err(bad_reply)?;
        self.gen.store(generation, Ordering::Release);
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
    /// as they appear. Returns the generation the group settled on.
    pub fn resync(&self) -> Result<u64, ParallelError> {
        self.park(Duration::from_millis(5), || {
            let req = ops::plain_req(ops::OP_RESYNC, self.rank, self.generation());
            // ST_EMPTY: peers still rolling back; ST_STALE: another death
            // mid-resync — `call` already adopted the new generation, so
            // just go around again.
            Ok(match self.call(req)? {
                (ops::ST_OK, generation, _) => Some(generation),
                _ => None,
            })
        })
    }

    /// Deposits this rank's final result, then blocks (bounded by the
    /// park timeout) until every rank has one, so no rank leaves while a
    /// peer may still need it to redo a collective `finish`.
    pub fn deposit_result(&self, bytes: &[u8]) -> Result<(), ParallelError> {
        self.park(Duration::from_millis(5), || {
            match self.call(ops::result_req(self.rank, self.generation(), bytes))? {
                (ops::ST_OK, _, _) => Ok(Some(())),
                (ops::ST_EMPTY, _, _) => Ok(None),
                (_, generation, _) => Err(ParallelError::Interrupted { generation }),
            }
        })
    }

    /// Repeats `poll`, `pause` apart, until it yields a value, failing
    /// with [`ParallelError::Timeout`] once the park timeout has passed.
    fn park<T>(
        &self,
        pause: Duration,
        mut poll: impl FnMut() -> Result<Option<T>, ParallelError>,
    ) -> Result<T, ParallelError> {
        let deadline = Instant::now() + self.park_timeout;
        loop {
            if let Some(done) = poll()? {
                return Ok(done);
            }
            if Instant::now() >= deadline {
                return Err(ParallelError::Timeout {
                    waited_ms: self.park_timeout.as_millis() as u64,
                });
            }
            std::thread::sleep(pause);
        }
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

    /// The hub long-polls each recv, so the link re-polls at once.
    fn recv(&self) -> Result<WireMsg, ParallelError> {
        self.park(Duration::ZERO, || {
            let (status, generation, rest) =
                self.call(ops::recv_req(self.rank, self.generation(), RECV_WAIT_MS))?;
            match status {
                ops::ST_OK => le::decode(&rest, |r| {
                    Ok(Some(WireMsg {
                        src_world: r.get::<u32>()? as usize,
                        context: r.get()?,
                        tag: r.get()?,
                        bytes: r.bytes32()?.to_vec(),
                    }))
                })
                .map_err(bad_reply),
                ops::ST_EMPTY => Ok(None),
                _ => Err(ParallelError::Interrupted { generation }),
            }
        })
    }
}

/// One rank's share of a resumable, checkpointed run, driven by
/// [`run_worker`]. Each method may fail; an error carrying
/// [`ParallelError::Interrupted`] means "roll back", anything else ends
/// the run.
pub trait Worker {
    /// Resets to the group's committed checkpoint — `(step, this rank's
    /// bytes)` — or to the initial state when nothing is committed yet.
    fn restore(&mut self, checkpoint: Option<(u64, &[u8])>) -> Result<(), CcaError>;

    /// Takes step `step` (0-based) over `comm` and returns the bytes to
    /// checkpoint once it is done.
    fn step(&mut self, comm: &Comm, step: u64) -> Result<Vec<u8>, CcaError>;

    /// The result to deposit once every step is done.
    fn finish(&mut self, comm: &Comm) -> Result<Vec<u8>, CcaError>;
}

/// Runs `work` to `steps` steps on this rank and leaves the fleet: the
/// one rollback loop a fleet child needs. Each attempt resyncs with the
/// group, restores the committed checkpoint (or starts fresh), builds a
/// fresh [`Comm`] so collective sequence numbers restart from zero on
/// every rank, steps with a checkpoint per step, deposits the result,
/// waits for every peer's, and leaves. A [`ParallelError::Interrupted`]
/// from any of those — a peer died — starts the next attempt; any other
/// error is returned as is. No rank leaves before every result is in, so
/// a retried [`Worker::finish`] always finds the whole group.
pub fn run_worker(link: &Arc<HubLink>, steps: u64, work: &mut impl Worker) -> Result<(), CcaError> {
    loop {
        match attempt(link, steps, work) {
            Err(CcaError::Parallel(ParallelError::Interrupted { .. })) => continue,
            done => return done,
        }
    }
}

/// One pass of [`run_worker`], from resync to leave.
fn attempt(link: &Arc<HubLink>, steps: u64, work: &mut impl Worker) -> Result<(), CcaError> {
    link.resync()?;
    let (start, blob) = link.restore()?.unzip();
    work.restore(start.zip(blob.as_deref()))?;
    let comm = link.comm();
    for step in start.unwrap_or(0)..steps {
        let blob = work.step(&comm, step)?;
        link.checkpoint(step + 1, &blob)?;
    }
    link.deposit_result(&work.finish(&comm)?)?;
    Ok(link.leave()?)
}
