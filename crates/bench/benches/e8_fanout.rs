//! E8 — §6.1: "Note that this means one call may correspond to zero or
//! more invocations on provider components."
//!
//! Measures a uses-port fan-out call against the number of connected
//! listeners (0, 1, 2, 4, 8). Expected shape: cost linear in the listener
//! count, with the zero-listener case costing only the (cheap) empty-list
//! traversal — events into the void are nearly free, as the
//! listener-pattern design intends.

use cca_bench::{Harness, Report};
use cca_core::{CcaServices, PortHandle};
use cca_data::TypeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

trait EventPort: Send + Sync {
    fn notify(&self, value: f64);
}

struct Listener {
    seen: AtomicU64,
}

impl EventPort for Listener {
    fn notify(&self, value: f64) {
        self.seen.fetch_add(value as u64, Ordering::Relaxed);
    }
}

fn wire(n_listeners: usize) -> Arc<CcaServices> {
    let user = CcaServices::new("emitter");
    user.register_uses_port("events", "bench.EventPort", TypeMap::new())
        .unwrap();
    for i in 0..n_listeners {
        let provider = CcaServices::new(format!("listener{i}"));
        let obj: Arc<dyn EventPort> = Arc::new(Listener {
            seen: AtomicU64::new(0),
        });
        provider
            .add_provides_port(PortHandle::new("in", "bench.EventPort", obj))
            .unwrap();
        user.connect_uses("events", provider.get_provides_port("in").unwrap())
            .unwrap();
    }
    user
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e8_fanout", &h);
    for n in [0usize, 1, 2, 4, 8] {
        let user = wire(n);
        // Pre-resolve the listener list once (the steady-state pattern)…
        let cached: Vec<Arc<dyn EventPort>> = user
            .get_ports("events")
            .unwrap()
            .iter()
            .map(|handle| handle.typed().unwrap())
            .collect();
        report.metric(
            &format!("cached_listeners_{n}_ns"),
            h.time(|| {
                for l in &cached {
                    l.notify(black_box(1.0));
                }
            }),
        );
        // …and the per-call resolution variant (listener set may change
        // between calls under dynamic reconfiguration). `get_ports` hands
        // back the shared `Arc<[PortHandle]>` snapshot, so this loop does
        // zero heap allocations per call.
        report.metric(
            &format!("resolve_each_call_{n}_ns"),
            h.time(|| {
                for handle in user.get_ports("events").unwrap().iter() {
                    let l: Arc<dyn EventPort> = handle.typed().unwrap();
                    l.notify(black_box(1.0));
                }
            }),
        );
    }
    report.finish();
}
