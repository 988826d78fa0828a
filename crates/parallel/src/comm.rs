//! Communicators: typed point-to-point messaging and collectives.
//!
//! A [`Comm`] is the in-process stand-in for an MPI communicator. Each rank
//! is an OS thread; messages travel over `std::sync::mpsc` channels;
//! payloads are moved (never serialized) because all ranks share an
//! address space — matching the paper's "tightly coupled" fast path.
//! Serialization only appears in `cca-rpc`, where the paper's
//! *distributed* connections live.
//!
//! Since the fleet work, a rank may instead live in a *separate process*:
//! the same `Comm` then routes every message through a [`WireLink`]
//! (constructed with [`Comm::over_wire`]), which serializes payloads with
//! the closed codec in [`crate::wire`] and carries the identical
//! (source, context, tag) matching triple. The two paths meet in one
//! `RankEndpoint` enum; collectives, tag matching, sub-communicators,
//! and the unexpected-message buffer are shared code, so SPMD programs
//! are oblivious to which substrate they run on.
//!
//! Sub-communicators created with [`Comm::split`] reuse the world channel
//! mesh with a *context id*, exactly how MPI implementations isolate
//! communicator traffic on one network.

use crate::error::ParallelError;
use crate::reduce::ReduceOp;
use crate::wire::{self, WireLink};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A user message tag. Every value is available to applications:
/// collective traffic is tagged above `u32`'s range, which no `Tag` reaches.
pub type Tag = u32;

/// Internal tag bit marking collective traffic.
const COLLECTIVE_BIT: u64 = 1 << 63;

/// A message payload in either of its two representations: moved (ranks
/// share an address space) or encoded (ranks are separate processes).
enum Payload {
    Local(Box<dyn Any + Send>),
    Wire(Vec<u8>),
}

/// One in-flight message.
struct Envelope {
    src_world: usize,
    context: u32,
    tag: u64,
    payload: Payload,
}

/// Where this rank's messages come from and go to: the channel
/// mesh when all ranks are threads of one process, or a [`WireLink`] when
/// this rank is a supervised child process in a fleet.
enum RankEndpoint {
    Local {
        rx: Receiver<Envelope>,
        /// Senders to every *world* rank.
        senders: Arc<Vec<Sender<Envelope>>>,
    },
    Wire {
        link: Arc<dyn WireLink>,
    },
}

/// Per-rank receive endpoint: the transport plus a buffer of messages
/// that arrived before anyone asked for them (out-of-order matching, as
/// MPI requires). The buffer is shared by all communicators of the rank,
/// which is what makes cross-communicator arrival order irrelevant.
struct Endpoint {
    kind: RankEndpoint,
    unexpected: RefCell<Vec<Envelope>>,
}

/// Materializes a payload as the receiver's expected type, decoding the
/// wire form first when needed. Both representations fail the same way:
/// a typed [`ParallelError::TypeMismatch`].
fn extract<T: Send + 'static>(payload: Payload) -> Result<T, ParallelError> {
    let boxed: Box<dyn Any + Send> = match payload {
        Payload::Local(b) => b,
        Payload::Wire(bytes) => wire::decode_to_box(&bytes)?,
    };
    boxed
        .downcast::<T>()
        .map(|b| *b)
        .map_err(|_| ParallelError::TypeMismatch {
            expected: std::any::type_name::<T>(),
        })
}

/// An MPI-flavoured communicator over a group of thread ranks.
///
/// `Comm` is deliberately **not** `Send`: it belongs to the rank thread
/// that received it from [`spmd`], like an MPI rank's communicator handle.
pub struct Comm {
    endpoint: Rc<Endpoint>,
    /// World ranks of this communicator's members, indexed by group rank.
    group: Arc<Vec<usize>>,
    /// My rank within this communicator.
    rank: usize,
    /// My world rank (cached `group[rank]`).
    world_rank: usize,
    /// Context id isolating this communicator's traffic.
    context: u32,
    /// Per-thread counter for allocating child context ids. Stays in sync
    /// across ranks because communicator creation is collective.
    next_context: Rc<Cell<u32>>,
    /// Per-communicator collective sequence number.
    coll_seq: Cell<u64>,
}

impl Comm {
    /// Builds a world communicator for an out-of-process rank whose
    /// traffic rides `link`. `rank`/`size` come from the fleet join
    /// handshake; every peer is reached through the link (the supervisor
    /// hub relays), so there is no local channel mesh at all.
    pub fn over_wire(link: Arc<dyn WireLink>, rank: usize, size: usize) -> Comm {
        assert!(rank < size, "wire rank {rank} out of range for size {size}");
        Comm {
            endpoint: Rc::new(Endpoint {
                kind: RankEndpoint::Wire { link },
                unexpected: RefCell::new(Vec::new()),
            }),
            group: Arc::new((0..size).collect()),
            rank,
            world_rank: rank,
            context: 0,
            next_context: Rc::new(Cell::new(1)),
            coll_seq: Cell::new(0),
        }
    }

    /// My rank in this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// My rank in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// The world ranks of this communicator's members.
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    fn check_rank(&self, rank: usize) -> Result<(), ParallelError> {
        if rank >= self.size() {
            Err(ParallelError::RankOutOfRange {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Sends `value` to group rank `dst` with a user `tag`. Never blocks
    /// (channels are unbounded, the usual "eager" MPI small-message mode).
    pub fn send<T: Send + 'static>(
        &self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), ParallelError> {
        self.check_rank(dst)?;
        self.send_value(dst, tag as u64, value)
    }

    fn send_value<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        value: T,
    ) -> Result<(), ParallelError> {
        let world_dst = self.group[dst];
        match &self.endpoint.kind {
            RankEndpoint::Local { senders, .. } => senders[world_dst]
                .send(Envelope {
                    src_world: self.world_rank,
                    context: self.context,
                    tag,
                    payload: Payload::Local(Box::new(value)),
                })
                .map_err(|_| ParallelError::Disconnected { peer: dst }),
            RankEndpoint::Wire { link } => {
                let bytes =
                    wire::encode_any(&value).ok_or_else(|| ParallelError::Unserializable {
                        type_name: std::any::type_name::<T>(),
                    })?;
                link.send(world_dst, self.context, tag, bytes)
            }
        }
    }

    /// Receives a `T` from group rank `src` with matching `tag`, blocking
    /// until it arrives. Messages from other (src, tag) pairs are buffered.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: Tag) -> Result<T, ParallelError> {
        self.check_rank(src)?;
        self.recv_raw(self.group[src], tag as u64)
    }

    fn recv_raw<T: Send + 'static>(&self, src_world: usize, tag: u64) -> Result<T, ParallelError> {
        // First check the buffer of earlier arrivals.
        {
            let mut buf = self.endpoint.unexpected.borrow_mut();
            if let Some(pos) = buf
                .iter()
                .position(|e| e.src_world == src_world && e.context == self.context && e.tag == tag)
            {
                let env = buf.remove(pos);
                drop(buf);
                return extract::<T>(env.payload);
            }
        }
        // Then pull from the transport, buffering anything that doesn't
        // match. Both substrates deliver the same Envelope shape, so the
        // matching logic is shared.
        loop {
            let env = match &self.endpoint.kind {
                RankEndpoint::Local { rx, .. } => rx
                    .recv()
                    .map_err(|_| ParallelError::Disconnected { peer: src_world })?,
                RankEndpoint::Wire { link } => {
                    let m = link.recv()?;
                    Envelope {
                        src_world: m.src_world,
                        context: m.context,
                        tag: m.tag,
                        payload: Payload::Wire(m.bytes),
                    }
                }
            };
            if env.src_world == src_world && env.context == self.context && env.tag == tag {
                return extract::<T>(env.payload);
            }
            self.endpoint.unexpected.borrow_mut().push(env);
        }
    }

    /// Allocates the tag for the next collective operation on this
    /// communicator (same value on every rank under SPMD discipline).
    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLLECTIVE_BIT | seq
    }

    /// Synchronizes all ranks: no rank leaves before every rank has entered.
    pub fn barrier(&self) -> Result<(), ParallelError> {
        let tag = self.next_coll_tag();
        // Dissemination barrier: log2(size) rounds, no root bottleneck.
        let size = self.size();
        let mut round = 1usize;
        let mut k = 0u64;
        while round < size {
            let dst = (self.rank + round) % size;
            let src = (self.rank + size - round) % size;
            self.send_value(dst, tag ^ (k << 32), ())?;
            let _: () = self.recv_raw(self.group[src], tag ^ (k << 32))?;
            round <<= 1;
            k += 1;
        }
        Ok(())
    }

    /// Broadcasts the root's value to every rank. On the root, pass
    /// `Some(value)`; elsewhere pass `None`. Returns the value on all ranks.
    pub fn bcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, ParallelError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let v = value.ok_or_else(|| {
                ParallelError::CollectiveMismatch("bcast root must supply a value".into())
            })?;
            for r in 0..self.size() {
                if r != root {
                    self.send_value(r, tag, v.clone())?;
                }
            }
            Ok(v)
        } else {
            self.recv_raw(self.group[root], tag)
        }
    }

    /// Gathers one value from every rank to the root, ordered by rank.
    /// Returns `Some(values)` on the root, `None` elsewhere.
    pub fn gather<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>, ParallelError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for r in 0..self.size() {
                if r != root {
                    out[r] = Some(self.recv_raw(self.group[r], tag)?);
                }
            }
            Ok(Some(out.into_iter().map(Option::unwrap).collect()))
        } else {
            self.send_value(root, tag, value)?;
            Ok(None)
        }
    }

    /// Scatters one value per rank from the root. On the root pass
    /// `Some(values)` with `values.len() == size`; elsewhere `None`.
    pub fn scatter<T: Send + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, ParallelError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let values = values.ok_or_else(|| {
                ParallelError::CollectiveMismatch("scatter root must supply values".into())
            })?;
            if values.len() != self.size() {
                return Err(ParallelError::CollectiveMismatch(format!(
                    "scatter got {} values for {} ranks",
                    values.len(),
                    self.size()
                )));
            }
            let mut mine = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == self.rank {
                    mine = Some(v);
                } else {
                    self.send_value(r, tag, v)?;
                }
            }
            Ok(mine.expect("root receives its own slot"))
        } else {
            self.recv_raw(self.group[root], tag)
        }
    }

    /// Gathers one value from every rank to *every* rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Result<Vec<T>, ParallelError> {
        let gathered = self.gather(0, value)?;
        self.bcast(0, gathered)
    }

    /// Reduces values from all ranks onto the root with `op`.
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        op: &dyn ReduceOp<T>,
    ) -> Result<Option<T>, ParallelError> {
        let gathered = self.gather(root, value)?;
        Ok(gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("communicator has at least one rank");
            it.fold(first, |a, b| op.combine(a, b))
        }))
    }

    /// Reduces values from all ranks and delivers the result to all ranks.
    pub fn allreduce<T: Clone + Send + 'static>(
        &self,
        value: T,
        op: &dyn ReduceOp<T>,
    ) -> Result<T, ParallelError> {
        let reduced = self.reduce(0, value, op)?;
        self.bcast(0, reduced)
    }

    /// Splits the communicator by `color`: ranks sharing a color form a new
    /// communicator, ordered by `key` (ties broken by old rank). Returns
    /// `None` for ranks passing `color = None` (MPI's `MPI_UNDEFINED`).
    ///
    /// Collective: every rank of `self` must call it.
    pub fn split(&self, color: Option<u32>, key: i64) -> Result<Option<Comm>, ParallelError> {
        // Everyone learns everyone's (color, key, world_rank).
        let triples = self.allgather((color, key, self.world_rank))?;
        // Context id for *each* color must be distinct and identical on all
        // ranks: allocate one id per distinct color, in sorted color order.
        let mut colors: Vec<u32> = triples.iter().filter_map(|t| t.0).collect();
        colors.sort_unstable();
        colors.dedup();
        let base = self.next_context.get();
        self.next_context.set(base + colors.len() as u32);
        let Some(my_color) = color else {
            return Ok(None);
        };
        // The list came from a peer's bytes: one that leaves this rank out
        // is refused, not trusted.
        let left_out = || {
            ParallelError::CollectiveMismatch(format!("split left out rank {}", self.world_rank))
        };
        let color_index = colors.binary_search(&my_color).map_err(|_| left_out())? as u32;
        let context = base + color_index;
        let mut members: Vec<(i64, usize)> = triples
            .iter()
            .filter(|t| t.0 == Some(my_color))
            .map(|t| (t.1, t.2))
            .collect();
        members.sort();
        let group: Vec<usize> = members.iter().map(|&(_, w)| w).collect();
        let rank = group
            .iter()
            .position(|&w| w == self.world_rank)
            .ok_or_else(left_out)?;
        Ok(Some(Comm {
            endpoint: Rc::clone(&self.endpoint),
            group: Arc::new(group),
            rank,
            world_rank: self.world_rank,
            context,
            next_context: Rc::clone(&self.next_context),
            coll_seq: Cell::new(0),
        }))
    }
}

/// Runs `f` as an SPMD program over `n` thread ranks and returns every
/// rank's result, ordered by rank. Panics in any rank propagate.
pub fn spmd<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(n > 0, "SPMD group must have at least one rank");
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    let group: Arc<Vec<usize>> = Arc::new((0..n).collect());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let group = Arc::clone(&group);
            let f = &f;
            handles.push(scope.spawn(move || {
                let comm = Comm {
                    endpoint: Rc::new(Endpoint {
                        kind: RankEndpoint::Local { rx, senders },
                        unexpected: RefCell::new(Vec::new()),
                    }),
                    group,
                    rank,
                    world_rank: rank,
                    context: 0,
                    next_context: Rc::new(Cell::new(1)),
                    coll_seq: Cell::new(0),
                };
                f(&comm)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("SPMD rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{MaxOp, SumOp};

    #[test]
    fn ring_pass_accumulates() {
        let results = spmd(4, |c| {
            // Each rank sends its rank+accumulator around the ring once.
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let mut acc = c.rank();
            for _ in 0..c.size() - 1 {
                c.send(next, 7, acc).unwrap();
                let got: usize = c.recv(prev, 7).unwrap();
                acc = got + c.rank();
            }
            acc
        });
        // Every rank ends with sum over some traversal; verify determinism
        // of the ring arithmetic instead of a closed form: recompute.
        let expect = |rank: usize| {
            let size = 4usize;
            let mut accs: Vec<usize> = (0..size).collect();
            for _ in 0..size - 1 {
                let sent = accs.clone();
                for r in 0..size {
                    let prev = (r + size - 1) % size;
                    accs[r] = sent[prev] + r;
                }
            }
            accs[rank]
        };
        for (r, &got) in results.iter().enumerate() {
            assert_eq!(got, expect(r));
        }
    }

    #[test]
    fn out_of_order_tag_matching() {
        let results = spmd(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1.
                c.send(1, 2, "second".to_string()).unwrap();
                c.send(1, 1, "first".to_string()).unwrap();
                String::new()
            } else {
                // Receive tag 1 first: the tag-2 message must be buffered.
                let a: String = c.recv(0, 1).unwrap();
                let b: String = c.recv(0, 2).unwrap();
                format!("{a},{b}")
            }
        });
        assert_eq!(results[1], "first,second");
    }

    #[test]
    fn send_to_a_returned_rank_is_disconnected() {
        let results = spmd(2, |c| {
            if c.rank() == 1 {
                return None;
            }
            // Sends succeed while rank 1's endpoint lives; once its thread
            // has returned and dropped the endpoint, the next send fails.
            loop {
                match c.send(1, 0, ()) {
                    Ok(()) => std::thread::yield_now(),
                    Err(e) => return Some(e),
                }
            }
        });
        assert!(matches!(
            results[0],
            Some(ParallelError::Disconnected { peer: 1 })
        ));
    }

    #[test]
    fn type_mismatch_detected() {
        let results = spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, 42i32).unwrap();
                true
            } else {
                matches!(
                    c.recv::<String>(0, 0),
                    Err(ParallelError::TypeMismatch { .. })
                )
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn rank_bounds_checked() {
        spmd(2, |c| {
            assert!(matches!(
                c.send(5, 0, 0u8),
                Err(ParallelError::RankOutOfRange { rank: 5, size: 2 })
            ));
            assert!(c.recv::<u8>(9, 0).is_err());
        });
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        spmd(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // After the barrier every rank must observe all 4 arrivals.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn bcast_delivers_to_all() {
        let results = spmd(4, |c| {
            if c.rank() == 2 {
                c.bcast(2, Some(vec![1.0f64, 2.0, 3.0])).unwrap()
            } else {
                c.bcast(2, None).unwrap()
            }
        });
        for r in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let results = spmd(4, |c| c.gather(1, c.rank() * 10).unwrap());
        assert_eq!(results[1], Some(vec![0, 10, 20, 30]));
        assert_eq!(results[0], None);
        assert_eq!(results[2], None);
    }

    #[test]
    fn scatter_distributes_by_rank() {
        let results = spmd(3, |c| {
            let input = if c.rank() == 0 {
                Some(vec!["a".to_string(), "b".to_string(), "c".to_string()])
            } else {
                None
            };
            c.scatter(0, input).unwrap()
        });
        assert_eq!(results, vec!["a", "b", "c"]);
    }

    #[test]
    fn scatter_length_mismatch_errors_on_root() {
        let results = spmd(2, |c| {
            if c.rank() == 0 {
                matches!(
                    c.scatter(0, Some(vec![1, 2, 3])),
                    Err(ParallelError::CollectiveMismatch(_))
                )
            } else {
                // Rank 1 would block forever waiting for its slice; don't
                // participate in the failing collective.
                true
            }
        });
        assert!(results.iter().all(|&b| b));
    }

    #[test]
    fn allgather_matches_gather_plus_bcast() {
        let results = spmd(4, |c| c.allgather(c.rank() as i64).unwrap());
        for r in results {
            assert_eq!(r, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let results = spmd(4, |c| {
            let s = c.reduce(0, (c.rank() + 1) as f64, &SumOp).unwrap();
            let m = c.allreduce(c.rank() as i64, &MaxOp).unwrap();
            (s, m)
        });
        assert_eq!(results[0].0, Some(10.0));
        for (r, (_, m)) in results.iter().enumerate() {
            assert_eq!(*m, 3, "rank {r}");
        }
    }

    #[test]
    fn split_forms_disjoint_subgroups() {
        let results = spmd(6, |c| {
            // Even ranks form one group, odd ranks another.
            let color = (c.rank() % 2) as u32;
            let sub = c.split(Some(color), c.rank() as i64).unwrap().unwrap();
            // Sum within the subgroup.
            let sum = sub.allreduce(c.rank() as i64, &SumOp).unwrap();
            (sub.rank(), sub.size(), sum)
        });
        for (world, (sub_rank, sub_size, sum)) in results.iter().enumerate() {
            assert_eq!(*sub_size, 3);
            assert_eq!(*sub_rank, world / 2);
            let expect: i64 = if world % 2 == 0 { 2 + 4 } else { 1 + 3 + 5 };
            assert_eq!(*sum, expect);
        }
    }

    #[test]
    fn split_with_none_color_returns_none() {
        let results = spmd(4, |c| {
            let color = if c.rank() < 2 { Some(0) } else { None };
            c.split(color, 0).unwrap().is_some()
        });
        assert_eq!(results, vec![true, true, false, false]);
    }

    #[test]
    fn split_key_reorders_ranks() {
        let results = spmd(3, |c| {
            // Reverse order via key.
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap().unwrap();
            sub.rank()
        });
        assert_eq!(results, vec![2, 1, 0]);
    }

    #[test]
    fn subcommunicator_traffic_is_isolated() {
        let results = spmd(4, |c| {
            let sub = c.split(Some((c.rank() % 2) as u32), 0).unwrap().unwrap();
            // Same tag used on world and sub communicators concurrently.
            if c.rank() == 0 {
                c.send(1, 5, 100i32).unwrap();
            }
            if sub.rank() == 0 {
                sub.send(1, 5, 200i32).unwrap();
            }
            let mut got = Vec::new();
            if c.rank() == 1 {
                got.push(c.recv::<i32>(0, 5).unwrap());
            }
            if sub.rank() == 1 {
                got.push(sub.recv::<i32>(0, 5).unwrap());
            }
            got
        });
        // Groups: even = {0,2} (sub ranks 0,1), odd = {1,3} (sub ranks 0,1).
        // World rank 1 receives only the world message (it is sub rank 0);
        // world rank 2 receives 200 from world 0; world rank 3 receives 200
        // from world 1. Identical tags on the two communicators never mix.
        assert_eq!(results[0], Vec::<i32>::new());
        assert_eq!(results[1], vec![100]);
        assert_eq!(results[2], vec![200]);
        assert_eq!(results[3], vec![200]);
    }

    #[test]
    fn dup_isolates_collectives() {
        let results = spmd(3, |c| {
            // A duplicate: every rank, in the same order, in a new context.
            let d = c.split(Some(0), c.rank() as i64).unwrap().unwrap();
            assert_eq!(d.rank(), c.rank());
            assert_eq!(d.size(), c.size());
            // Interleave collectives on both communicators.
            let a = c.allreduce(1i64, &SumOp).unwrap();
            let b = d.allreduce(2i64, &SumOp).unwrap();
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a, 3);
            assert_eq!(b, 6);
        }
    }

    #[test]
    fn single_rank_group_works() {
        let results = spmd(1, |c| {
            c.barrier().unwrap();
            let v = c.bcast(0, Some(9)).unwrap();
            let g = c.gather(0, v).unwrap();
            let s = c.allreduce(5.0f64, &SumOp).unwrap();
            (v, g, s)
        });
        assert_eq!(results[0], (9, Some(vec![9]), 5.0));
    }

    #[test]
    fn large_payload_moves_without_copy_semantics_breaking() {
        let results = spmd(2, |c| {
            if c.rank() == 0 {
                let big: Vec<u64> = (0..100_000).collect();
                c.send(1, 0, big).unwrap();
                0u64
            } else {
                let big: Vec<u64> = c.recv(0, 0).unwrap();
                big.iter().sum::<u64>()
            }
        });
        assert_eq!(results[1], (0..100_000u64).sum::<u64>());
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn gather_concatenates_ragged_contributions() {
        let results = spmd(3, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32 + 1).collect();
            c.gather(0, mine).unwrap()
        });
        assert_eq!(results[0], Some(vec![vec![0], vec![0, 1], vec![0, 1, 2]]));
        assert_eq!(results[1], None);
    }

    #[test]
    fn scatter_distributes_ragged_pieces() {
        let results = spmd(3, |c| {
            let input = if c.rank() == 1 {
                Some(vec![vec![9u8], vec![], vec![1, 2, 3]])
            } else {
                None
            };
            c.scatter(1, input).unwrap()
        });
        assert_eq!(results[0], vec![9]);
        assert_eq!(results[1], Vec::<u8>::new());
        assert_eq!(results[2], vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use crate::reduce::{MaxOp, SumOp};
    use crate::wire::WireMsg;
    use parking_lot::{Condvar, Mutex};
    use std::collections::VecDeque;

    /// An in-memory wire mesh: one mailbox per rank, every link shares
    /// the mesh. Exercises the Wire endpoint and the codec without any
    /// transport underneath.
    struct MemMesh {
        boxes: Vec<(Mutex<VecDeque<WireMsg>>, Condvar)>,
    }

    struct MemLink {
        mesh: Arc<MemMesh>,
        rank: usize,
    }

    impl WireLink for MemLink {
        fn send(
            &self,
            dst_world: usize,
            context: u32,
            tag: u64,
            bytes: Vec<u8>,
        ) -> Result<(), ParallelError> {
            let (lock, cv) = &self.mesh.boxes[dst_world];
            lock.lock().push_back(WireMsg {
                src_world: self.rank,
                context,
                tag,
                bytes,
            });
            cv.notify_all();
            Ok(())
        }

        fn recv(&self) -> Result<WireMsg, ParallelError> {
            let (lock, cv) = &self.mesh.boxes[self.rank];
            let mut q = lock.lock();
            loop {
                if let Some(m) = q.pop_front() {
                    return Ok(m);
                }
                q = cv.wait(q);
            }
        }
    }

    fn wire_spmd<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        let mesh = Arc::new(MemMesh {
            boxes: (0..n)
                .map(|_| (Mutex::new(VecDeque::new()), Condvar::new()))
                .collect(),
        });
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let mesh = Arc::clone(&mesh);
                    let f = &f;
                    scope.spawn(move || {
                        let link = Arc::new(MemLink { mesh, rank });
                        let comm = Comm::over_wire(link, rank, n);
                        f(&comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("wire rank panicked"))
                .collect()
        })
    }

    #[test]
    fn point_to_point_and_buffering_over_wire() {
        let results = wire_spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 2, vec![2.0f64]).unwrap();
                c.send(1, 1, vec![1.0f64]).unwrap();
                Vec::new()
            } else {
                let a: Vec<f64> = c.recv(0, 1).unwrap();
                let b: Vec<f64> = c.recv(0, 2).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn collectives_over_wire_match_thread_substrate() {
        let over_wire = wire_spmd(4, |c| {
            c.barrier().unwrap();
            let sum = c.allreduce((c.rank() + 1) as f64, &SumOp).unwrap();
            let max = c.allreduce(c.rank() as i64, &MaxOp).unwrap();
            let pair = c
                .allreduce(
                    (1.0, c.rank() as f64),
                    &crate::reduce::FnOp(|a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1 + b.1)),
                )
                .unwrap();
            let gathered = c.allgather(c.rank()).unwrap();
            (sum, max, pair, gathered)
        });
        for (sum, max, pair, gathered) in over_wire {
            assert_eq!(sum, 10.0);
            assert_eq!(max, 3);
            assert_eq!(pair, (4.0, 6.0));
            assert_eq!(gathered, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn split_works_over_wire() {
        let results = wire_spmd(4, |c| {
            let sub = c.split(Some((c.rank() % 2) as u32), 0).unwrap().unwrap();
            sub.allreduce(c.rank() as i64, &SumOp).unwrap()
        });
        assert_eq!(results, vec![2, 4, 2, 4]);
    }

    /// `split` learns every rank's `(color, key, rank)` from bytes a peer
    /// sent. A gathered list that leaves this rank's color or this rank
    /// out is a typed mismatch on this rank, not a panic.
    #[test]
    fn split_refuses_a_gathered_list_that_leaves_this_rank_out() {
        for color in [1u32, 2] {
            let refused = wire_spmd(2, |c| {
                let mine = (Some(1u32), 0i64, 0usize);
                if c.rank() == 0 {
                    // The root's half of split's allgather, with rank 1
                    // dropped from the list it sends back.
                    c.gather(0, mine).unwrap();
                    c.bcast(0, Some(vec![mine, mine])).unwrap();
                    true
                } else {
                    let split = c.split(Some(color), 0);
                    matches!(split, Err(ParallelError::CollectiveMismatch(_)))
                }
            });
            assert_eq!(refused, [true, true], "color {color}");
        }
    }

    #[test]
    fn unsupported_payload_fails_on_sender() {
        struct NotWireable;
        let results = wire_spmd(2, |c| {
            if c.rank() == 0 {
                // Tell rank 1 not to wait for a real message.
                c.send(1, 1, ()).unwrap();
                matches!(
                    c.send(1, 0, NotWireable),
                    Err(ParallelError::Unserializable { .. })
                )
            } else {
                let () = c.recv(0, 1).unwrap();
                true
            }
        });
        assert!(results.iter().all(|&b| b));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reduce::{MaxOp, SumOp};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Collectives equal their sequential specification for arbitrary
        /// per-rank values and group sizes.
        #[test]
        fn collectives_match_sequential_spec(
            size in 1usize..5,
            values in proptest::collection::vec(-100i64..100, 5),
        ) {
            let values = values[..size].to_vec();
            let expect_sum: i64 = values.iter().sum();
            let expect_max: i64 = *values.iter().max().unwrap();
            let v2 = values.clone();
            let results = spmd(size, move |c| {
                let mine = v2[c.rank()];
                let sum = c.allreduce(mine, &SumOp).unwrap();
                let max = c.allreduce(mine, &MaxOp).unwrap();
                let gathered = c.allgather(mine).unwrap();
                (sum, max, gathered)
            });
            for (sum, max, gathered) in results {
                prop_assert_eq!(sum, expect_sum);
                prop_assert_eq!(max, expect_max);
                prop_assert_eq!(&gathered, &values);
            }
        }

    }
}
