//! The benchmark's own span recorder. Spans are opened from the
//! benchmark's files around calls into each crate's public functions —
//! nothing inside `crates/` is touched — and land in a pre-sized `Vec`
//! per thread, handed to the collector each time the thread's outermost
//! span closes.
//!
//! A span's layer is its name up to the first `.` (`solvers.solve` →
//! `solvers`). Self time is the span's duration minus the part of it its
//! child spans cover, so the self times of a span tree sum to the root's
//! duration exactly.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

// Relaxed everywhere: each flag is a lone value that publishes no other
// data (the span buffers are handed over under `COLLECTED`'s mutex).
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// The span a parentless span on another thread belongs to: a closed-loop
/// caller parks its call span here so the servant-side span, recorded on
/// a server thread, becomes that call's child.
static ADOPTER: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Spans a thread can record before its buffer has to grow.
const PRESIZE: usize = 1 << 16;

struct ThreadBuf {
    tid: u32,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        next: 0,
        stack: Vec::with_capacity(16),
        spans: Vec::new(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped. Inert (one relaxed load,
/// no clock read) while tracing is off.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    adopting: bool,
}

pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Like [`span`], and additionally adopts every parentless span other
/// threads record while it is open. Only meaningful with one such span
/// open at a time — i.e. from a closed loop with one call in flight.
pub fn span_adopting(name: &'static str) -> Guard {
    open(name, true)
}

fn open(name: &'static str, adopting: bool) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            adopting: false,
        };
    }
    let (id, parent) = BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.spans.capacity() == 0 {
            buf.spans.reserve(PRESIZE);
        }
        buf.next += 1;
        let id = ((buf.tid as u64) << 40) | buf.next;
        let parent = buf
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| ADOPTER.load(Ordering::Relaxed));
        buf.stack.push(id);
        (id, parent)
    });
    if adopting {
        ADOPTER.store(id, Ordering::Relaxed);
    }
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        adopting,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        if self.adopting {
            ADOPTER.store(0, Ordering::Relaxed);
        }
        // `try_with`: a guard outliving its thread's buffer (thread
        // teardown) loses its span instead of panicking in a destructor,
        // as does one that finds the collector poisoned.
        let _ = BUF.try_with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.stack.pop();
            let tid = buf.tid;
            buf.spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                tid,
                start_ns: self.start_ns,
                end_ns,
            });
            if buf.stack.is_empty() {
                if let Ok(mut all) = COLLECTED.lock() {
                    all.append(&mut buf.spans);
                }
            }
        });
    }
}

/// Every span whose thread has closed its outermost span, oldest first.
pub fn drain() -> Vec<Span> {
    let mut all = std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("span collector lock poisoned by a panicking thread"),
    );
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Self time per span id: duration minus the union of its children's
/// intervals (clipped to the span), so overlapping siblings on different
/// threads are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// The spans of the tree under `root` (the root included), following
/// parent links across threads.
pub fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut inside: std::collections::BTreeSet<u64> = [root].into();
    // Spans are sorted by start, and a child never starts before its
    // parent, so one pass sees every parent before its children —
    // except adopted spans racing the clock; loop until stable.
    loop {
        let before = inside.len();
        for s in spans {
            if inside.contains(&s.parent) {
                inside.insert(s.id);
            }
        }
        if inside.len() == before {
            break;
        }
    }
    spans
        .iter()
        .filter(|s| inside.contains(&s.id))
        .cloned()
        .collect()
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub self_ns: u64,
    pub spans: usize,
}

/// Self time summed by layer over the tree under `root`. The rows sum to
/// the root span's duration.
pub fn layer_table(spans: &[Span], root: u64) -> Vec<LayerRow> {
    let tree = subtree(spans, root);
    let selfs = self_times(&tree);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in &tree {
        let row = rows.entry(s.layer()).or_insert(LayerRow {
            layer: s.layer(),
            self_ns: 0,
            spans: 0,
        });
        row.self_ns += selfs[&s.id];
        row.spans += 1;
    }
    rows.into_values().collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Summed self time (ns) of every span called `name`.
pub fn self_total(spans: &[Span], name: &str) -> f64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .sum()
}

/// Chrome `trace_event` document (complete events), which Perfetto and
/// `chrome://tracing` open directly.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_spans() {
        let spans = vec![
            sp(1, 0, "bench.run", 0, 100),
            sp(2, 1, "solvers.step", 10, 60),  // child of 1
            sp(3, 2, "solvers.solve", 20, 50), // nested in 2
            sp(4, 1, "rpc.call", 70, 90),      // sibling of 2
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 20);
        assert_eq!(selfs[&2], 50 - 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 20);
        // The tree's self times sum to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_on_other_threads_are_covered_once() {
        let spans = vec![
            sp(1, 0, "bench.run", 0, 100),
            sp(2, 1, "rpc.a", 10, 60),
            sp(3, 1, "rpc.b", 40, 80),  // overlaps 2
            sp(4, 1, "rpc.c", 90, 130), // runs past its parent: clipped
        ];
        // Covered: [10,80) ∪ [90,100) = 80.
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn layer_table_rows_sum_to_the_root_and_skip_other_trees() {
        let spans = vec![
            sp(1, 0, "bench.run", 0, 100),
            sp(2, 1, "solvers.step", 10, 60),
            sp(3, 2, "rpc.call", 20, 50),
            sp(4, 3, "solvers.servant", 25, 45),
            sp(9, 0, "repository.reader", 0, 500), // another thread's root
        ];
        let rows = layer_table(&spans, 1);
        let by: BTreeMap<_, _> = rows.iter().map(|r| (r.layer, r.self_ns)).collect();
        assert_eq!(by["bench"], 50);
        assert_eq!(by["solvers"], 20 + 20);
        assert_eq!(by["rpc"], 10);
        assert!(!by.contains_key("repository"));
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_and_adopt_across_threads() {
        set_enabled(true);
        let root_id;
        {
            let root = span("bench.test_root");
            root_id = root.id;
            {
                let call = span_adopting("rpc.test_call");
                let call_id = call.id;
                std::thread::spawn(move || {
                    let servant = span("solvers.test_servant");
                    assert_eq!(servant.parent, call_id);
                })
                .join()
                .unwrap();
            }
            let _after = span("bench.test_after");
        }
        set_enabled(false);
        assert_eq!(span("bench.test_off").id, 0);
        // Other tests may record concurrently; look only at this tree.
        let tree = subtree(&drain(), root_id);
        let names: Vec<_> = tree.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench.test_root",
                "rpc.test_call",
                "solvers.test_servant",
                "bench.test_after"
            ]
        );
        assert_eq!(tree[3].parent, root_id, "adoption ends with the call");
        let total: u64 = self_times(&tree).values().sum();
        assert_eq!(total, tree[0].dur_ns());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_reader() {
        let spans = vec![sp(1, 0, "bench.run", 1_500, 4_000)];
        let doc = chrome_trace(&spans);
        let back = Json::parse(&doc.render()).unwrap();
        let Json::Arr(events) = back.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(events[0].get("cat").unwrap().as_str(), Some("bench"));
    }
}
