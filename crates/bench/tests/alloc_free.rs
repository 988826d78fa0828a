//! Acceptance check: the direct-connect steady state performs ZERO heap
//! allocations per call.
//!
//! Counts the measuring thread's allocations through a wrapping
//! `#[global_allocator]` and asserts the delta across the hot paths is
//! exactly zero:
//!
//! * a uses-port fan-out (`get_ports` snapshot + `typed()` per listener) —
//!   the snapshot is a shared `Arc<[PortHandle]>` and `typed()` clones an
//!   `Arc`, so both are refcount bumps only;
//! * a steady-state `CachedPort::get` (one relaxed generation load);
//! * an uncached `get_port_as` success path (snapshot read + BTreeMap
//!   lookup + downcast — slower, but still allocation-free);
//! * the same `CachedPort::get` with per-port counters ON — the metrics
//!   record path (single-writer shard bump) must also be allocation-free,
//!   or "metrics-on" would silently change the steady state it observes;
//! * span creation with tracing OFF — the inert guard every instrumented
//!   framework operation constructs unconditionally;
//! * the full tracing-off trace plumbing a remote call executes
//!   (`span` + `current_context` + `install_context`) — exactly zero;
//! * the tracing-off frame encode: onto a buffer that already has the
//!   room, exactly zero; into a fresh frame, exactly one (the frame);
//! * the remote call path itself over the mux transport: a remote call
//!   allocates (payload vecs, frames), so the assertion is *equality* —
//!   the calling thread's warmed per-loop allocation count must be
//!   deterministic, and turning tracing ON must not add a single
//!   allocation (rings are preallocated; context rides in the frame);
//! * building and compiling a redistribution plan: not zero, but the same
//!   count whatever the array's size — nothing is allocated per element;
//! * packing a compiled transfer: exactly one allocation, the payload;
//! * a warmed banded `matvec` on the 5-point operator: exactly zero;
//! * the value codec: encoding a request that carries an array allocates
//!   exactly once (the message buffer, sized up front), a full
//!   encode/decode round trip allocates alike at 16 and 8192 elements, and
//!   a hostile array header is refused before a byte is allocated for the
//!   elements it declares — in both value codecs and in the fleet hub's
//!   op codec;
//! * a generated skeleton's dynamic `apply` over 4,096 doubles: exactly
//!   the result's five allocations, none for the borrowed argument;
//! * a trigram index build over 10,000 catalog entries: at most twice the
//!   bytes the built index holds — no (trigram, ordinal) pair vector;
//! * an exact repository lookup: exactly what cloning the entry it
//!   returns allocates — no key, no copy of the stored form;
//! * a fuzzy query for a common word: at most `limit` + 16 allocations,
//!   alike at 2,000 and 20,000 catalog types — nothing per segment or per
//!   candidate, a string only per hit returned.
//!
//! The tally is per thread, so what a sibling test or a server thread
//! allocates meanwhile cannot leak into a measured region. The `cca-obs`
//! flags, though, are process-global, and the paths that depend on them are
//! sensitive to a flip mid-loop (a first traced span allocates its thread's
//! ring; a first counted remote call allocates its per-method entry). So
//! every check that flips or depends on a flag runs inside the one test
//! that owns them, in sequence; the rest are allocation-free in either
//! flag state and run beside it.

use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
use cca_rpc::frame::{encode_frame_onto, encode_frame_with, FrameKind, DEFAULT_MAX_PAYLOAD};
use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxServerConfig, MuxTransport, ObjRef, Orb};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates or registers anything, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down may allocate past its TLS.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested so far by the calling thread's allocations.
fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

trait EventPort: Send + Sync {
    fn notify(&self, value: u64);
}

struct Listener {
    seen: AtomicU64,
}

impl EventPort for Listener {
    fn notify(&self, value: u64) {
        self.seen.fetch_add(value, Ordering::Relaxed);
    }
}

fn wire_fanout(n: usize) -> Arc<CcaServices> {
    let user = CcaServices::new("emitter");
    user.register_uses_port("events", "test.EventPort", TypeMap::new())
        .unwrap();
    for i in 0..n {
        let provider = CcaServices::new(format!("listener{i}"));
        let obj: Arc<dyn EventPort> = Arc::new(Listener {
            seen: AtomicU64::new(0),
        });
        provider
            .add_provides_port(PortHandle::new("in", "test.EventPort", obj))
            .unwrap();
        user.connect_uses("events", provider.get_provides_port("in").unwrap())
            .unwrap();
    }
    user
}

#[test]
fn fanout_multicast_allocates_nothing_per_call() {
    let user = wire_fanout(8);

    // Warm-up pass outside the measured region (first call may touch lazy
    // error formatting paths in a cold binary; it must not, but don't let
    // one-time effects mask a per-call regression either way).
    for h in user.get_ports("events").unwrap().iter() {
        let l: Arc<dyn EventPort> = h.typed().unwrap();
        l.notify(1);
    }

    let before = alloc_count();
    for _ in 0..1000 {
        for h in user.get_ports("events").unwrap().iter() {
            let l: Arc<dyn EventPort> = h.typed().unwrap();
            l.notify(1);
        }
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "fan-out multicast must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

#[test]
fn cached_port_get_allocates_nothing_in_steady_state() {
    let user = wire_fanout(1);
    let mut cached = user.cached_port::<dyn EventPort>("events");
    cached.get().unwrap().notify(1); // first get resolves (may allocate)

    let before = alloc_count();
    for _ in 0..1000 {
        cached.get().unwrap().notify(1);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state CachedPort::get must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

fn counters_on_cached_record_path_allocates_nothing() {
    let user = wire_fanout(1);
    let mut cached = user.cached_port::<dyn EventPort>("events");
    cca_obs::set_counters(true);
    // Prime under the counters-on state: first resolution registers the
    // call shard (one allocation, once per slot identity — allowed here).
    cached.get().unwrap().notify(1);
    let calls_before = user.port_metrics("events").unwrap().calls();

    let before = alloc_count();
    for _ in 0..1000 {
        cached.get().unwrap().notify(1);
    }
    let delta = alloc_count() - before;
    let counted = user.port_metrics("events").unwrap().calls() - calls_before;
    cca_obs::set_counters(false);
    assert_eq!(
        delta, 0,
        "counters-on CachedPort::get must be allocation-free ({delta} allocations over 1000 calls)"
    );
    // Prove the measured loop actually exercised the record path.
    assert_eq!(counted, 1000, "every call must be counted");
}

fn tracing_off_span_guard_allocates_nothing() {
    cca_obs::set_tracing(false);
    drop(cca_obs::span("alloc.warmup"));

    let before = alloc_count();
    for _ in 0..1000 {
        let _span = cca_obs::span("alloc.probe");
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "tracing-off span guards must be allocation-free ({delta} allocations over 1000 spans)"
    );
}

fn tracing_off_remote_plumbing_allocates_nothing() {
    cca_obs::set_tracing(false);
    drop(cca_obs::span("alloc.warmup"));

    // The exact trace plumbing a remote call runs with tracing off: the
    // inert span guard, the context read the encoder performs, and the
    // inert install guard the server dispatch performs.
    let before = alloc_count();
    for _ in 0..1000 {
        let _span = cca_obs::span("alloc.probe");
        let ctx = cca_obs::current_context();
        let _guard = cca_obs::install_context(ctx);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "tracing-off remote trace plumbing must be allocation-free \
         ({delta} allocations over 1000 iterations)"
    );
}

fn tracing_off_frame_encode_allocates_exactly() {
    cca_obs::set_tracing(false);
    let payload = [7u8; 64];
    let mut out = Vec::with_capacity(4096);

    let before = alloc_count();
    for _ in 0..1000 {
        out.clear();
        let ctx = cca_obs::current_context();
        encode_frame_onto(
            &mut out,
            FrameKind::Request,
            42,
            &payload,
            DEFAULT_MAX_PAYLOAD,
            ctx,
        )
        .unwrap();
    }
    let onto = alloc_count() - before;

    let before = alloc_count();
    let ctx = cca_obs::current_context();
    let frame =
        encode_frame_with(FrameKind::Request, 42, &payload, DEFAULT_MAX_PAYLOAD, ctx).unwrap();
    let with = alloc_count() - before;

    assert_eq!(
        onto, 0,
        "a tracing-off frame encoded onto a buffer with room must not allocate \
         ({onto} allocations over 1000 frames)"
    );
    assert_eq!(
        with, 1,
        "encode_frame_with must allocate exactly its frame ({with})"
    );
    assert_eq!(frame, out, "both encoders write the same bytes");
}

struct Doubler;
impl DynObject for Doubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "double" => Ok(DynValue::Long(2 * args[0].as_long()?)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

fn remote_loop_allocs(objref: &ObjRef, n: i64) -> u64 {
    let before = alloc_count();
    for k in 0..n {
        let r = objref.invoke("double", vec![DynValue::Long(k)]).unwrap();
        assert!(matches!(r, DynValue::Long(v) if v == 2 * k));
    }
    alloc_count() - before
}

/// Remote calls allocate by nature (argument vecs, frames, replies), so
/// the check is equality, not zero: two warmed tracing-off loops must
/// allocate identically (the count is a deterministic function of the
/// call, not of time), and a tracing-on loop must match them exactly —
/// the span ring is preallocated and the wire context rides inside the
/// frame's existing single buffer.
fn remote_call_trace_plumbing_adds_no_allocations_mux() {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(Doubler));
    // One dispatch worker: the server-side ring warm-up is deterministic.
    let server = MuxServer::bind_with(
        "127.0.0.1:0",
        orb as Arc<dyn Dispatcher>,
        MuxServerConfig {
            dispatch_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
    let objref = ObjRef::new("doubler", transport as Arc<dyn cca_rpc::Transport>);

    // Warm both gates outside the measured region: connection dials, reply
    // buffers, and the per-thread trace rings (client and server side)
    // all come into existence here.
    cca_obs::set_tracing(false);
    remote_loop_allocs(&objref, 200);
    cca_obs::set_tracing(true);
    remote_loop_allocs(&objref, 200);
    cca_obs::set_tracing(false);

    let off_first = remote_loop_allocs(&objref, 500);
    let off_second = remote_loop_allocs(&objref, 500);
    cca_obs::set_tracing(true);
    let on = remote_loop_allocs(&objref, 500);
    cca_obs::set_tracing(false);
    cca_obs::drain();
    server.shutdown();

    assert_eq!(
        off_first, off_second,
        "warmed remote calls must allocate deterministically"
    );
    assert_eq!(
        on, off_first,
        "tracing must add zero allocations per remote call \
         (off={off_first}, on={on} over 500 calls)"
    );
}

/// The one test that owns the process-global `cca-obs` flags (see the
/// module doc): each check leaves both flags off for the next.
#[test]
fn flag_dependent_paths_add_no_allocations() {
    counters_on_cached_record_path_allocates_nothing();
    tracing_off_span_guard_allocates_nothing();
    tracing_off_remote_plumbing_allocates_nothing();
    tracing_off_frame_encode_allocates_exactly();
    remote_call_trace_plumbing_adds_no_allocations_mux();
}

#[test]
fn steady_state_redistribution_allocates_nothing() {
    use cca_data::{DistArrayDesc, Distribution, RedistPlan};

    // A 4-rank → 3-rank block recoupling: every timestep re-runs the same
    // compiled plan over the same buffers.
    let src_desc = DistArrayDesc::new(&[96], Distribution::block_1d(4, 1).unwrap()).unwrap();
    let dst_desc = DistArrayDesc::new(&[96], Distribution::block_1d(3, 1).unwrap()).unwrap();
    let plan = RedistPlan::build(&src_desc, &dst_desc).unwrap();
    let compiled = plan.compile().unwrap();

    let src: Vec<Vec<f64>> = (0..4)
        .map(|r| {
            (0..src_desc.local_count(r).unwrap())
                .map(|i| i as f64)
                .collect()
        })
        .collect();
    let mut dst: Vec<Vec<f64>> = (0..3)
        .map(|r| vec![0.0; dst_desc.local_count(r).unwrap()])
        .collect();

    // Warm-up timestep: any lazy setup happens here.
    compiled.apply_into(&src, &mut dst).unwrap();

    let before = alloc_count();
    for _ in 0..1000 {
        compiled.apply_into(&src, &mut dst).unwrap();
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state redistribution (apply_into) must be \
         allocation-free ({delta} allocations over 1000 timesteps)"
    );
}

/// Packing one transfer allocates its payload and nothing else: exactly
/// one allocation of exactly `count × 8` bytes, even when the transfer is
/// a strided 2-D rectangle gathered run by run.
#[test]
fn compiled_pack_allocates_once() {
    use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};

    let desc = |grid: [usize; 2]| {
        let grid = ProcessGrid::new(&grid).unwrap();
        let dist = Distribution::new(grid, &[DimDist::Block, DimDist::Block]).unwrap();
        DistArrayDesc::new(&[64, 64], dist).unwrap()
    };
    let compiled = RedistPlan::build(&desc([1, 4]), &desc([3, 1]))
        .unwrap()
        .compile()
        .unwrap();
    let t = &compiled.transfers()[1];
    assert!(t.runs(0, t.count()).count() > 1, "the transfer is strided");
    let src: Vec<f64> = (0..compiled.src_count(t.src_rank))
        .map(|i| i as f64)
        .collect();
    let (calls, bytes) = (alloc_count(), alloc_bytes());
    let payload = t.pack(&src);
    let (calls, bytes) = (alloc_count() - calls, alloc_bytes() - bytes);
    assert_eq!(payload.len(), t.count());
    assert_eq!(calls, 1, "pack must allocate exactly once ({calls})");
    assert_eq!(
        bytes,
        (t.count() * 8) as u64,
        "pack must allocate the payload only"
    );
}

/// The banded `matvec` CG runs on every iteration writes into the caller's
/// vector: once warmed, it allocates nothing.
#[test]
fn banded_matvec_allocates_nothing() {
    let a = cca_solvers::CsrMatrix::laplacian_2d(64, 64);
    assert_eq!(a.band_count(), Some(5));
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64).collect();
    let mut y = vec![0.0; a.nrows()];
    a.matvec(&x, &mut y);
    let before = alloc_count();
    for _ in 0..10 {
        a.matvec(&x, &mut y);
    }
    assert_eq!(alloc_count() - before, 0, "banded matvec must not allocate");
}

/// Planning allocates per rank, per interval and per transfer — never per
/// element: the same layouts cost the same allocations at any size.
#[test]
fn planning_allocations_do_not_grow_with_the_array() {
    use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};

    let desc = |side: usize, grid: [usize; 2]| {
        let grid = ProcessGrid::new(&grid).unwrap();
        let dist = Distribution::new(grid, &[DimDist::Block, DimDist::Block]).unwrap();
        DistArrayDesc::new(&[side, side], dist).unwrap()
    };
    let plan_allocations = |side: usize| {
        let (src, dst) = (desc(side, [1, 4]), desc(side, [3, 1]));
        let before = alloc_count();
        let compiled = RedistPlan::build(&src, &dst).unwrap().compile().unwrap();
        let delta = alloc_count() - before;
        assert_eq!(compiled.transfers().len(), 12);
        delta
    };
    assert_eq!(
        plan_allocations(64),
        plan_allocations(1024),
        "build + compile of [1,4]->[3,1] must allocate alike at 64x64 and 1024x1024"
    );
}

/// Every `cca-obs` counter block records with relaxed atomics only; the mux
/// pair runs on every remote call, the exact-lookup count on every
/// repository lookup and the solver tallies on every CG solve, so none of
/// them may allocate.
#[test]
fn counter_block_record_paths_allocate_nothing() {
    let mux = cca_obs::MuxMetrics::default();
    let bulk = cca_obs::BulkMetrics::default();
    let before = alloc_count();
    for i in 0..1000 {
        cca_obs::resilience().record_retry();
        cca_obs::fleet().record_message_relayed();
        cca_obs::repo().record_exact_lookup();
        cca_obs::repo().record_fuzzy_query(3);
        cca_obs::solvers().record_cg_solve(3, 8, 4);
        mux.record_begin();
        mux.set_queued_bytes(i);
        mux.set_paused_connections(i % 2);
        mux.record_end();
        bulk.record_chunk_sent(64, 96);
        bulk.record_chunk_landed(64);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "counter record paths must be allocation-free ({delta} allocations over 1000 rounds)"
    );
    assert_eq!(mux.snapshot().peak_in_flight, 1);
    assert_eq!(bulk.snapshot().chunks_sent, 1000);
}

/// A request carrying an `n`-element `double` array, and its echo reply.
fn array_messages(n: usize) -> (cca_rpc::Request, cca_rpc::Reply) {
    let array = cca_data::NdArray::from_vec(&[n], vec![0.5f64; n]).unwrap();
    let request = cca_rpc::Request {
        request_id: 7,
        object_key: "solver0/solver".into(),
        operation: "solve".into(),
        args: vec![DynValue::DoubleArray(array.clone())],
    };
    let reply = cca_rpc::Reply {
        request_id: 7,
        result: Ok(DynValue::DoubleArray(array)),
    };
    (request, reply)
}

/// The value codec sizes a message once: no doubling reallocations, so
/// one allocation whatever the array's length.
#[test]
fn encoding_an_array_request_allocates_once() {
    for n in [16, 8192] {
        let (request, _) = array_messages(n);
        let before = alloc_count();
        let bytes = cca_rpc::encode_request(&request).unwrap();
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 1,
            "encode_request of a {n}-element array must allocate exactly once ({delta})"
        );
        assert!(bytes.len() > 8 * n);
    }
}

/// Encode and decode both ways — the four codec calls of one remote call —
/// allocate per message and per argument, never per element.
#[test]
fn codec_round_trip_allocations_do_not_grow_with_the_array() {
    let round_trip = |n: usize| {
        let (request, reply) = array_messages(n);
        let before = alloc_count();
        let out = cca_rpc::encode_request(&request).unwrap();
        let served = cca_rpc::decode_request(out).unwrap();
        let back = cca_rpc::encode_reply(&reply).unwrap();
        let answered = cca_rpc::decode_reply(back).unwrap();
        let delta = alloc_count() - before;
        assert_eq!(served.args.len(), 1);
        assert!(answered.result.is_ok());
        delta
    };
    assert_eq!(
        round_trip(16),
        round_trip(8192),
        "a codec round trip must allocate alike at 16 and 8192 elements"
    );
}

/// A hostile length costs its decoder no more than the error: the
/// declared element or payload bytes are checked against the message
/// before anything is allocated for them.
#[test]
fn hostile_array_headers_allocate_nothing_for_their_elements() {
    // An `rpc` request of 40 bytes declaring 2^30 dcomplexes (16 GiB).
    let mut raw = Vec::new();
    raw.extend_from_slice(&1u64.to_le_bytes());
    for s in ["k", "o"] {
        raw.extend_from_slice(&(s.len() as u32).to_le_bytes());
        raw.extend_from_slice(s.as_bytes());
    }
    raw.extend_from_slice(&1u32.to_le_bytes());
    raw.extend_from_slice(&[13, 1]); // dcomplex array, rank 1
    raw.extend_from_slice(&0i64.to_le_bytes());
    raw.extend_from_slice(&(1u64 << 30).to_le_bytes());
    assert_eq!(raw.len(), 40);
    let request = bytes::Bytes::from(raw);
    let before = alloc_bytes();
    let refused = cca_rpc::decode_request(request);
    let spent = alloc_bytes() - before;
    assert!(
        refused.is_err(),
        "a 2^30-element header in 40 bytes must be refused"
    );
    assert!(spent < 1024, "refusing it allocated {spent} bytes");

    // A `parallel` wire vector of 5 bytes declaring 2^32 - 1 doubles.
    let mut raw = vec![10u8]; // Vec<f64>
    raw.extend_from_slice(&u32::MAX.to_le_bytes());
    let before = alloc_bytes();
    let refused = cca_parallel::wire::decode_to_box(&raw);
    let spent = alloc_bytes() - before;
    assert!(
        refused.is_err(),
        "a 2^32-element count in 5 bytes must be refused"
    );
    assert!(spent < 1024, "refusing it allocated {spent} bytes");

    // A fleet hub `send` op of 33 bytes whose payload declares 2^32 - 1
    // bytes.
    let hub = cca_framework::FleetHub::new(2);
    let mut raw = vec![1u8]; // send
    raw.extend_from_slice(&0u32.to_le_bytes()); // rank
    raw.extend_from_slice(&0u64.to_le_bytes()); // generation
    raw.extend_from_slice(&1u32.to_le_bytes()); // destination
    raw.extend_from_slice(&0u32.to_le_bytes()); // context
    raw.extend_from_slice(&0u64.to_le_bytes()); // tag
    raw.extend_from_slice(&u32::MAX.to_le_bytes()); // payload length
    assert_eq!(raw.len(), 33);
    let request = bytes::Bytes::from(raw);
    let before = alloc_bytes();
    let refused = hub.dispatch(request);
    let spent = alloc_bytes() - before;
    assert!(
        matches!(
            refused,
            Err(SidlError::UserException { ref exception_type, .. })
                if exception_type == "cca.fleet.BadOp"
        ),
        "a 2^32-byte payload in 33 bytes must be a typed refusal: {refused:?}"
    );
    assert!(spent < 1024, "refusing it allocated {spent} bytes");
}

#[test]
fn uncached_get_port_as_success_path_allocates_nothing() {
    let user = wire_fanout(1);
    let _warm: Arc<dyn EventPort> = user.get_port_as("events").unwrap();

    let before = alloc_count();
    for _ in 0..1000 {
        let p: Arc<dyn EventPort> = user.get_port_as("events").unwrap();
        p.notify(1);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "get_port_as success path must be allocation-free ({delta} allocations over 1000 calls)"
    );
}

/// The `esi` operator's dynamic facade borrows its array argument: an
/// `apply` over 4,096 doubles allocates the result array (32 KiB of data
/// plus a few bytes of shape, five allocations in all) and no copy of the
/// 32 KiB input on the way into the typed call.
#[test]
fn dynamic_apply_borrows_its_array_argument() {
    const N: usize = 4096;
    let repo = cca_repository::Repository::new();
    repo.deposit_sidl(cca_solvers::esi::ESI_SIDL).unwrap();
    let fw = cca_framework::Framework::new(repo);
    fw.add_instance(
        "matrix0",
        cca_solvers::esi::MatrixComponent::new(cca_solvers::CsrMatrix::laplacian_2d(64, 64)),
    )
    .unwrap();
    let handle = fw
        .services("matrix0")
        .unwrap()
        .get_provides_port("A")
        .unwrap();
    let facade = Arc::clone(handle.dynamic().unwrap());
    let x = cca_data::NdArray::from_vec(&[N], vec![1.0; N]).unwrap();
    let call = |x: &cca_data::NdArray<f64>| {
        let args = vec![DynValue::DoubleArray(x.clone())];
        let (count, bytes) = (alloc_count(), alloc_bytes());
        let y = facade.invoke("apply", args).unwrap();
        let spent = (alloc_count() - count, alloc_bytes() - bytes);
        assert!(matches!(&y, DynValue::DoubleArray(a) if a.len() == N));
        spent
    };
    call(&x);
    let (count, bytes) = call(&x);
    assert_eq!(count, 5, "allocations per dynamic apply");
    assert!(
        bytes < (N * 8 * 3 / 2) as u64,
        "a dynamic apply over {N} doubles allocated {bytes} bytes"
    );
}

/// A shard's trigram index is built by counting, not by sorting pairs:
/// over 10,000 entries shaped like the catalog's (lowered class, one
/// space, lowered ports and description), the build allocates at most
/// twice the bytes the finished index holds. A (trigram, ordinal) pair
/// vector alone costs 8 bytes a posting against the index's 4, and more
/// while it grows by doubling.
#[test]
fn trigram_index_build_allocates_about_its_own_size() {
    const PKGS: [&str; 4] = ["esi", "hydro", "viz", "mesh"];
    const WORDS: [&str; 8] = [
        "krylov", "gmres", "jacobi", "euler", "riemann", "fourier", "schur", "halo",
    ];
    let texts: Vec<String> = (0..10_000)
        .map(|i| {
            let (w1, w2) = (WORDS[i % 8], WORDS[(i / 8) % 8]);
            let pkg = PKGS[(i / 64) % 4];
            format!(
                "{pkg}.{w1}{w2}{i:07} main {pkg}.{w1}port go cca.ports.goport \
                 synthetic {w1} component {i}"
            )
        })
        .collect();
    let before = alloc_bytes();
    let index = cca_repository::TrigramIndex::build(&texts);
    let spent = alloc_bytes() - before;
    let own = index.heap_bytes() as u64;
    assert!(index.posting_entries() > 500_000, "a catalog-sized build");
    assert!(
        spent <= 2 * own,
        "building an index of {own} bytes allocated {spent} bytes"
    );
}

/// A catalog of `types` entries shaped like E17's: `pkg.Word1Word2NNNNNNN`
/// classes over 16 words, two ports and a one-line description each.
fn word_catalog(types: usize) -> Arc<cca_repository::Repository> {
    const PKGS: [&str; 4] = ["esi", "hydro", "viz", "mesh"];
    const WORDS: [&str; 16] = [
        "Krylov", "Gmres", "Jacobi", "Euler", "Riemann", "Fourier", "Schur", "Halo", "Tensor",
        "Newton", "Flux", "Mesh", "Graph", "Kernel", "Spline", "Adjoint",
    ];
    struct Nop;
    impl cca_core::Component for Nop {
        fn component_type(&self) -> &str {
            "synthetic.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), cca_core::CcaError> {
            Ok(())
        }
    }
    let repo = cca_repository::Repository::new();
    let batch = (0..types)
        .map(|i| {
            let (w1, w2) = (WORDS[i % 16], WORDS[(i / 16) % 16]);
            let pkg = PKGS[(i / 256) % 4];
            cca_repository::ComponentEntry {
                class: format!("{pkg}.{w1}{w2}{i:07}"),
                description: format!("synthetic {w1} component {i}"),
                provides: vec![cca_repository::PortSpec::new(
                    "main",
                    format!("{pkg}.{w1}Port"),
                )],
                uses: vec![cca_repository::PortSpec::new("go", "cca.ports.GoPort")],
                properties: TypeMap::new(),
                factory: Arc::new(|| Arc::new(Nop) as Arc<dyn cca_core::Component>),
            }
        })
        .collect();
    repo.register_components(batch).unwrap();
    repo
}

/// An exact lookup allocates what the entry it returns costs to clone,
/// and nothing else: no key string, no copy of the stored form.
#[test]
fn an_exact_lookup_allocates_only_the_entry_it_returns() {
    let repo = word_catalog(2_000);
    for class in ["esi.KrylovKrylov0000000", "mesh.GmresAdjoint0001009"] {
        let warm = repo.entry(class).unwrap();
        let before = alloc_count();
        let found = repo.entry(class).unwrap();
        let lookup = alloc_count() - before;
        let before = alloc_count();
        let cloned = warm.clone();
        let clone = alloc_count() - before;
        assert_eq!(found.class, class);
        assert_eq!(cloned.class, class);
        assert_eq!(
            lookup, clone,
            "a lookup of {class} against its entry's clone"
        );
    }
}

/// A fuzzy query for a common word allocates for the hits it returns and
/// a bounded handful besides (the lowered needle, its trigrams, the
/// snapshot list, the candidate buffer, the heap, the page), the same at
/// 2,000 and 20,000 types: nothing per segment visited, nothing per
/// candidate verified or per hit kept and later evicted.
#[test]
fn a_fuzzy_query_allocates_per_hit_returned_not_per_candidate() {
    const LIMIT: usize = 25;
    for types in [2_000, 20_000] {
        let repo = word_catalog(types);
        let query = cca_repository::FuzzyQuery::new("krylov").with_limit(LIMIT);
        let warm = repo.fuzzy(&query);
        assert_eq!(warm.hits.len(), LIMIT, "{types} types");
        let before = alloc_count();
        let page = repo.fuzzy(&query);
        let spent = alloc_count() - before;
        assert_eq!(page.hits, warm.hits);
        assert!(
            page.matched > 4 * LIMIT,
            "{types} types: {} matched",
            page.matched
        );
        assert!(
            spent <= (LIMIT + 16) as u64,
            "a fuzzy query over {types} types allocated {spent} times for {LIMIT} hits"
        );
    }
}
