//! Stress test for the lock-free port-resolution fast path: readers hammer
//! `get_port_as` / `CachedPort::get` while a writer connects and
//! disconnects the same slots.
//!
//! What must hold under the snapshot scheme:
//!
//! * readers never observe a torn table — every resolved port is a fully
//!   valid handle of the declared type, or a clean `PortNotConnected`;
//! * a `CachedPort` never serves a connection the writer has already
//!   severed *and then republished the generation for* — after the writer
//!   quiesces in the disconnected state, the very next `get()` errors;
//! * fan-out snapshots are internally consistent: a reader iterating
//!   `get_ports` sees a list from one instant, never a half-updated one.

use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

trait CounterPort: Send + Sync {
    fn value(&self) -> u64;
}

struct Counter {
    id: u64,
}

impl CounterPort for Counter {
    fn value(&self) -> u64 {
        self.id
    }
}

fn provider(id: u64) -> PortHandle {
    let obj: Arc<dyn CounterPort> = Arc::new(Counter { id });
    PortHandle::new("out", "test.CounterPort", obj)
}

#[test]
fn readers_race_writer_without_torn_reads() {
    let user = CcaServices::new("user");
    user.register_uses_port("in", "test.CounterPort", TypeMap::new())
        .unwrap();
    user.connect_uses("in", provider(0)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let resolved = Arc::new(AtomicU64::new(0));
    let disconnected = Arc::new(AtomicU64::new(0));
    let cached_hits = Arc::new(AtomicU64::new(0));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let user = Arc::clone(&user);
        let stop = Arc::clone(&stop);
        let resolved = Arc::clone(&resolved);
        let disconnected = Arc::clone(&disconnected);
        readers.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match user.get_port_as::<dyn CounterPort>("in") {
                    Ok(p) => {
                        // A resolved port is always fully usable: the call
                        // must return the id it was constructed with.
                        assert!(p.value() < u64::MAX);
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(cca_core::CcaError::PortNotConnected(_)) => {
                        disconnected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected resolution error: {e}"),
                }
            }
        }));
    }

    // A cached-port reader on its own thread: the memo must only ever
    // yield valid handles, re-resolving transparently across generations.
    let cached_reader = {
        let user = Arc::clone(&user);
        let stop = Arc::clone(&stop);
        let cached_hits = Arc::clone(&cached_hits);
        thread::spawn(move || {
            let mut cached = user.cached_port::<dyn CounterPort>("in");
            while !stop.load(Ordering::Relaxed) {
                match cached.get() {
                    Ok(p) => {
                        assert!(p.value() < u64::MAX);
                        cached_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(cca_core::CcaError::PortNotConnected(_)) => {}
                    Err(e) => panic!("unexpected cached resolution error: {e}"),
                }
            }
        })
    };

    // Writer: churn connect/disconnect cycles on the contested slot.
    for id in 1..=500u64 {
        let removed = user.disconnect_uses("in", 0).unwrap();
        assert_eq!(removed.port_name(), "in");
        if id % 7 == 0 {
            // Linger disconnected so readers actually observe the gap.
            thread::yield_now();
        }
        user.connect_uses("in", provider(id)).unwrap();
    }

    // The slot ends connected; wait (bounded) until every reader kind has
    // made progress — on a single-core box the spinning readers can starve
    // the others for a while, so a fixed sleep is not enough.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (resolved.load(Ordering::Relaxed) == 0 || cached_hits.load(Ordering::Relaxed) == 0)
        && std::time::Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    cached_reader.join().unwrap();

    // Readers resolved at least once, and the cached reader survived 500
    // generation bumps without ever yielding a bad handle.
    assert!(resolved.load(Ordering::Relaxed) > 0);
    assert!(cached_hits.load(Ordering::Relaxed) > 0);
    let p: Arc<dyn CounterPort> = user.get_port_as("in").unwrap();
    assert_eq!(p.value(), 500);
}

#[test]
fn metric_reads_race_connection_churn() {
    // Counter recording is process-global; sibling tests in this binary
    // never assert on counter *values*, so flipping the gate here is safe
    // even though tests run concurrently.
    cca_obs::set_counters(true);

    let user = CcaServices::new("user");
    user.register_uses_port("in", "test.CounterPort", TypeMap::new())
        .unwrap();
    user.connect_uses("in", provider(0)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));

    // A cached caller bumps its single-writer shard while snapshot readers
    // concurrently sum shards — the race the metrics layer must survive.
    let caller = {
        let user = Arc::clone(&user);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut cached = user.cached_port::<dyn CounterPort>("in");
            let mut calls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(p) = cached.get() {
                    assert!(p.value() < u64::MAX);
                    calls += 1;
                }
            }
            calls
        })
    };

    let mut metric_readers = Vec::new();
    for _ in 0..2 {
        let user = Arc::clone(&user);
        let stop = Arc::clone(&stop);
        metric_readers.push(thread::spawn(move || {
            let metrics = user.port_metrics("in").unwrap();
            let mut last_calls = 0u64;
            let mut last_churn = 0u64;
            let mut last_disconnects = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = metrics.snapshot();
                // Counters are monotonic: a later read never goes backward,
                // even while the writer republishes table snapshots.
                assert!(snap.calls >= last_calls, "calls went backward");
                assert!(snap.churn >= last_churn, "churn went backward");
                last_calls = snap.calls;
                last_churn = snap.churn;
                // A snapshot reads its counters one by one, so within one
                // the writer can finish a whole disconnect+connect between
                // the two loads. What monotonic counters do guarantee: a
                // disconnect count read earlier never exceeds a connect
                // count read later.
                assert!(last_disconnects <= snap.connects);
                last_disconnects = snap.disconnects;
                assert!(snap.fan_out <= snap.max_fan_out);
                // The whole-component aggregation stays coherent too.
                let all = user.metrics_snapshot();
                assert_eq!(all.len(), 1);
                assert_eq!(all[0].0, "in");
                assert_eq!(all[0].1, "uses");
            }
            (last_calls, last_churn)
        }));
    }

    // Writer: churn the contested slot; metrics follow the slot across
    // every copy-on-write republication.
    for id in 1..=300u64 {
        user.disconnect_uses("in", 0).unwrap();
        user.connect_uses("in", provider(id)).unwrap();
        if id % 16 == 0 {
            thread::yield_now();
        }
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while user.port_metrics("in").unwrap().snapshot().calls == 0
        && std::time::Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let calls_made = caller.join().unwrap();
    for r in metric_readers {
        r.join().unwrap();
    }
    cca_obs::set_counters(false);

    let snap = user.port_metrics("in").unwrap().snapshot();
    // 1 initial + 300 churn connects; 300 churn disconnects; ends connected.
    assert_eq!(snap.connects, 301);
    assert_eq!(snap.disconnects, 300);
    assert_eq!(snap.churn, 601);
    assert_eq!(snap.fan_out, 1);
    assert_eq!(snap.max_fan_out, 1);
    // Every successful cached call was counted (shards survive churn
    // because the metrics block travels with the slot, not the snapshot).
    assert!(calls_made > 0);
    assert!(snap.calls >= calls_made);
}

#[test]
fn cached_port_observes_disconnection() {
    let user = CcaServices::new("user");
    user.register_uses_port("in", "test.CounterPort", TypeMap::new())
        .unwrap();
    user.connect_uses("in", provider(7)).unwrap();

    let mut cached = user.cached_port::<dyn CounterPort>("in");
    assert_eq!(cached.get().unwrap().value(), 7);
    assert_eq!(cached.get().unwrap().value(), 7); // memoized fast path

    // Sever the connection from another thread (the framework side).
    {
        let user = Arc::clone(&user);
        thread::spawn(move || user.disconnect_uses("in", 0).unwrap())
            .join()
            .unwrap();
    }

    // The generation bump invalidates the memo: the stale handle is not
    // served, the next get() reports the disconnection.
    assert!(matches!(
        cached.get(),
        Err(cca_core::CcaError::PortNotConnected(_))
    ));

    // Reconnection heals it with the *new* provider, not the old memo.
    user.connect_uses("in", provider(8)).unwrap();
    assert_eq!(cached.get().unwrap().value(), 8);
}

#[test]
fn fanout_snapshot_is_internally_consistent() {
    let user = CcaServices::new("emitter");
    user.register_uses_port("events", "test.CounterPort", TypeMap::new())
        .unwrap();
    // Keep an invariant the writer maintains per mutation: ids in a slot
    // are always consecutive from 0 (writer only pushes id == len).
    for id in 0..4u64 {
        user.connect_uses("events", provider(id)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let user = Arc::clone(&user);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = user.get_ports("events").unwrap();
                // Within one snapshot the consecutive-ids invariant must
                // hold exactly — a torn list would break it.
                for (i, h) in snap.iter().enumerate() {
                    let p: Arc<dyn CounterPort> = h.typed().unwrap();
                    assert_eq!(p.value(), i as u64);
                }
            }
        }));
    }

    // Writer: grow and shrink the listener list, always preserving the
    // consecutive-ids invariant at every published state.
    for _ in 0..200 {
        let len = user.get_ports("events").unwrap().len();
        user.connect_uses("events", provider(len as u64)).unwrap();
        user.disconnect_uses("events", len).unwrap();
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
}
