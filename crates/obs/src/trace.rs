//! A lightweight distributed span/event tracer.
//!
//! Each thread records into its own fixed-capacity ring buffer. The ring
//! is a **single-writer seqlock**: the owning thread publishes events with
//! plain relaxed stores bracketed by a `reserve`/`commit` counter pair, so
//! the record path takes **no lock and performs no allocation** once the
//! thread's ring exists. Readers ([`drain`]/[`snapshot`]) copy slots and
//! then re-check `reserve`; any slot the writer might have been rewriting
//! mid-copy is provably torn and discarded (the classic seqlock recipe,
//! expressed entirely in safe Rust over `AtomicU64` words).
//!
//! Events carry **causal identity**: a per-process seeded `trace`/`span`
//! id pair plus a parent link, maintained in a thread-local current-span
//! cell. [`current_context`] exports the active identity for wire
//! propagation (the `cca-rpc` frame codec carries it as a 16-byte
//! extension) and [`install_context`] adopts a remote caller's identity
//! around a server-side dispatch, which is how a server span ends up
//! parented to the client span that caused it.
//!
//! [`to_jsonl`] and [`to_chrome_trace`] render one process's events;
//! [`merge_chrome_trace`] fuses several processes' JSONL dumps into a
//! single Perfetto timeline with flow arrows binding each remote dispatch
//! to its originating call (see EXPERIMENTS.md §E14).
//!
//! All recording is guarded by [`crate::tracing_enabled`]: one relaxed
//! atomic load when tracing is off.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Inline name capacity in bytes; longer names are truncated at a char
/// boundary.
const NAME_CAP: usize = 32;
/// Events retained per thread before the ring wraps.
const RING_CAP: usize = 4096;
/// `u64` words per encoded event: 4 name words, packed meta, `ts_ns`,
/// `dur_ns`, `trace_id`, `span_id`, `parent_id`.
const EVENT_WORDS: usize = 10;

/// What a [`TraceEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A duration: something began at `ts_ns` and took `dur_ns`.
    Span,
    /// A point event; `dur_ns` is zero.
    Instant,
}

/// One recorded event. `Copy` and pointer-free so rings can store and
/// drain it without touching the heap.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    name: [u8; NAME_CAP],
    name_len: u8,
    /// Span or instant.
    pub kind: TraceKind,
    /// Nanoseconds since the process trace epoch (first recording).
    pub ts_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// The trace this event belongs to; zero when no trace was active.
    pub trace_id: u64,
    /// This event's own span id (zero for instants).
    pub span_id: u64,
    /// The enclosing span's id at record time; zero at a trace root.
    pub parent_id: u64,
}

impl TraceEvent {
    /// The event name (possibly truncated to 32 bytes).
    pub fn name(&self) -> &str {
        // Inline names are only ever written from `pack_name`, which cuts
        // at a char boundary, so this cannot fail.
        std::str::from_utf8(&self.name[..self.name_len as usize]).unwrap_or("")
    }
}

fn pack_name(s: &str) -> ([u8; NAME_CAP], u8) {
    let mut n = s.len().min(NAME_CAP);
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    let mut buf = [0u8; NAME_CAP];
    buf[..n].copy_from_slice(&s.as_bytes()[..n]);
    (buf, n as u8)
}

// ---------------------------------------------------------------------------
// Trace identity
// ---------------------------------------------------------------------------

/// The causal identity a remote invocation carries across the wire: which
/// trace it belongs to and which span is the caller.
///
/// Both ids are nonzero by construction; the frame codec treats an
/// all-zero context as garbage. Serialized as 16 little-endian bytes
/// (`trace_id` then `span_id`) in the `CCAR` v2 frame extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every causally-related span shares.
    pub trace_id: u64,
    /// The span that is the parent of whatever the receiver records.
    pub span_id: u64,
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective mix, so distinct inputs give
/// distinct ids. (Local copy — `cca-core` depends on this crate, not the
/// other way around.)
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static ID_STATE: AtomicU64 = AtomicU64::new(0);
static ID_SEED: OnceLock<u64> = OnceLock::new();

/// Per-process id seed: wall clock xor pid, so two processes started the
/// same nanosecond still draw from different streams.
fn id_seed() -> u64 {
    *ID_SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        nanos ^ u64::from(std::process::id()).rotate_left(32)
    })
}

/// Draws the next nonzero id without touching shared state on the hot
/// path: each thread owns a disjoint id stream (a per-thread salt drawn
/// once from the global counter, mixed into every draw), so the per-span
/// cost is a `Cell` bump plus the SplitMix64 finalizer — no cross-core
/// cache traffic, and still bijective within a stream.
fn next_id() -> u64 {
    ID_LOCAL.with(|l| {
        let (salt, mut n) = l.get();
        loop {
            n = n.wrapping_add(1);
            let id = splitmix64(salt ^ n.wrapping_mul(GOLDEN));
            if id != 0 {
                l.set((salt, n));
                return id;
            }
        }
    })
}

thread_local! {
    /// The active (trace id, span id) on this thread; (0, 0) = no trace.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };

    /// (per-thread id salt, per-thread draw counter). The salt folds the
    /// process seed with a globally unique thread ordinal, keeping id
    /// streams disjoint across threads *and* processes.
    static ID_LOCAL: Cell<(u64, u64)> = Cell::new((
        splitmix64(id_seed() ^ ID_STATE.fetch_add(1, Ordering::Relaxed).rotate_left(17)),
        0,
    ));
}

/// The identity an outgoing remote call should carry, or `None` when
/// tracing is off or no span is active. One relaxed load on the off path.
#[inline]
pub fn current_context() -> Option<TraceContext> {
    if !crate::tracing_enabled() {
        return None;
    }
    let (trace_id, span_id) = CURRENT.with(Cell::get);
    if trace_id == 0 {
        None
    } else {
        Some(TraceContext { trace_id, span_id })
    }
}

/// Restores the previous thread-local trace identity when dropped.
///
/// Returned by [`install_context`]; inert when no context was installed.
pub struct ContextGuard {
    prev: Option<(u64, u64)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Adopts a remote caller's trace identity on this thread until the
/// returned guard drops. Spans opened under the guard are parented to the
/// caller's span, which is how a server-side dispatch joins the client's
/// trace. `None` (or tracing off) installs nothing and returns an inert
/// guard.
pub fn install_context(ctx: Option<TraceContext>) -> ContextGuard {
    match ctx {
        Some(c) if crate::tracing_enabled() => {
            let prev = CURRENT.with(|cell| cell.replace((c.trace_id, c.span_id)));
            ContextGuard { prev: Some(prev) }
        }
        _ => ContextGuard { prev: None },
    }
}

// ---------------------------------------------------------------------------
// The single-writer seqlock ring
// ---------------------------------------------------------------------------

/// A fixed-capacity single-writer ring of encoded events.
///
/// The owning thread is the only writer; readers run concurrently under
/// the registry lock. Positions are monotone event counts: position `p`
/// lives in slot `p % RING_CAP`. The writer bumps `reserve` *before*
/// touching a slot and `commit` *after*, so a reader that copies slots
/// and then re-checks `reserve` can discard exactly the positions whose
/// slot may have been rewritten underneath it.
struct Ring {
    words: Box<[AtomicU64]>,
    /// Positions `< reserve` have begun (possibly finished) being written.
    reserve: AtomicU64,
    /// Positions `< commit` are fully written.
    commit: AtomicU64,
    /// Positions `< tail` were already consumed by [`drain`].
    tail: AtomicU64,
    thread: u64,
}

impl Ring {
    fn new(thread: u64) -> Self {
        Ring {
            words: (0..RING_CAP * EVENT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            reserve: AtomicU64::new(0),
            commit: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            thread,
        }
    }

    /// Writer side. Must only be called from the ring's owning thread.
    fn push(&self, ev: &TraceEvent) {
        let h = self.commit.load(Ordering::Relaxed);
        // Claim the slot before writing it; the release fence orders this
        // store before the word stores below for any acquiring reader.
        self.reserve.store(h + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let slot = (h as usize % RING_CAP) * EVENT_WORDS;
        let mut name_words = [0u64; 4];
        for (i, chunk) in ev.name.chunks_exact(8).enumerate() {
            name_words[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        let kind = match ev.kind {
            TraceKind::Span => 0u64,
            TraceKind::Instant => 1u64,
        };
        let meta = u64::from(ev.name_len) | (kind << 8);
        let encoded = [
            name_words[0],
            name_words[1],
            name_words[2],
            name_words[3],
            meta,
            ev.ts_ns,
            ev.dur_ns,
            ev.trace_id,
            ev.span_id,
            ev.parent_id,
        ];
        for (cell, word) in self.words[slot..slot + EVENT_WORDS].iter().zip(encoded) {
            cell.store(word, Ordering::Relaxed);
        }
        // Publish: readers that acquire-load a commit ≥ h+1 see the words.
        self.commit.store(h + 1, Ordering::Release);
    }

    /// Reader side: appends every intact buffered event to `out`, oldest
    /// first. With `consume` the events are marked drained.
    fn read_into(&self, out: &mut Vec<TraceEvent>, consume: bool) {
        let h1 = self.commit.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        let start = tail.max(h1.saturating_sub(RING_CAP as u64));
        if start < h1 {
            let count = (h1 - start) as usize;
            let mut copy = vec![0u64; count * EVENT_WORDS];
            for (i, p) in (start..h1).enumerate() {
                let slot = (p as usize % RING_CAP) * EVENT_WORDS;
                for w in 0..EVENT_WORDS {
                    copy[i * EVENT_WORDS + w] = self.words[slot + w].load(Ordering::Relaxed);
                }
            }
            // Seqlock validation: order the copies above before the
            // reserve re-read, then drop every position whose slot the
            // writer may have been re-claiming while we copied.
            fence(Ordering::Acquire);
            let r2 = self.reserve.load(Ordering::Relaxed);
            let valid_from = start.max(r2.saturating_sub(RING_CAP as u64));
            for p in valid_from..h1 {
                let i = (p - start) as usize;
                out.push(self.decode(&copy[i * EVENT_WORDS..(i + 1) * EVENT_WORDS]));
            }
        }
        if consume {
            self.tail.store(h1, Ordering::Relaxed);
        }
    }

    fn decode(&self, w: &[u64]) -> TraceEvent {
        let mut name = [0u8; NAME_CAP];
        for i in 0..4 {
            name[i * 8..(i + 1) * 8].copy_from_slice(&w[i].to_le_bytes());
        }
        let name_len = (w[4] & 0xff).min(NAME_CAP as u64) as u8;
        let kind = if (w[4] >> 8) & 0xff == 1 {
            TraceKind::Instant
        } else {
            TraceKind::Span
        };
        TraceEvent {
            name,
            name_len,
            kind,
            ts_ns: w[5],
            dur_ns: w[6],
            thread: self.thread,
            trace_id: w[7],
            span_id: w[8],
            parent_id: w[9],
        }
    }
}

static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: Arc<Ring> = {
        let ring = Arc::new(Ring::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
        REGISTRY.lock().push(Arc::clone(&ring));
        ring
    };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// A RAII guard: records a [`TraceKind::Span`] from creation to drop.
///
/// Created by [`span`]. When tracing was off at creation the guard is
/// inert (no clock read, no recording at drop). While live, the guard's
/// span is the thread's current span: nested spans and outgoing remote
/// calls on the same thread parent to it. Drop the guard on the thread
/// that created it — parenting state is thread-local.
pub struct Span {
    name: [u8; NAME_CAP],
    name_len: u8,
    start: Option<Instant>,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    prev: (u64, u64),
}

impl Span {
    /// This span's wire identity, for callers that propagate manually.
    pub fn context(&self) -> Option<TraceContext> {
        self.start.map(|_| TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            CURRENT.with(|c| c.set(self.prev));
            let dur_ns = start.elapsed().as_nanos() as u64;
            let ts_ns = since_epoch_ns(start);
            let ev = TraceEvent {
                name: self.name,
                name_len: self.name_len,
                kind: TraceKind::Span,
                ts_ns,
                dur_ns,
                thread: 0,
                trace_id: self.trace_id,
                span_id: self.span_id,
                parent_id: self.parent_id,
            };
            LOCAL.with(|ring| ring.push(&ev));
        }
    }
}

/// Opens a span. If tracing is disabled this is one relaxed atomic load
/// and returns an inert guard; otherwise the span draws a fresh id,
/// parents itself to the thread's current span (starting a new trace if
/// none is active), becomes current, and records when the guard drops.
#[inline]
pub fn span(name: &str) -> Span {
    if !crate::tracing_enabled() {
        return Span {
            name: [0; NAME_CAP],
            name_len: 0,
            start: None,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            prev: (0, 0),
        };
    }
    let _ = epoch();
    let (name, name_len) = pack_name(name);
    let span_id = next_id();
    // One TLS visit reads the parent and installs this span. A root span
    // starts a fresh trace whose id *is* its span id (the usual
    // root-span convention) — one draw instead of two.
    let (prev, trace_id) = CURRENT.with(|c| {
        let prev = c.get();
        let trace_id = if prev.0 == 0 { span_id } else { prev.0 };
        c.set((trace_id, span_id));
        (prev, trace_id)
    });
    Span {
        name,
        name_len,
        start: Some(Instant::now()),
        trace_id,
        span_id,
        parent_id: prev.1,
        prev,
    }
}

/// Records a point event (Chrome trace `ph:"i"`), attached to the
/// thread's current trace and span if one is active. One relaxed load
/// when tracing is off.
#[inline]
pub fn trace_instant(name: &str) {
    if crate::tracing_enabled() {
        let ts_ns = since_epoch_ns(Instant::now());
        let (trace_id, parent_id) = CURRENT.with(Cell::get);
        let (name, name_len) = pack_name(name);
        let ev = TraceEvent {
            name,
            name_len,
            kind: TraceKind::Instant,
            ts_ns,
            dur_ns: 0,
            thread: 0,
            trace_id,
            span_id: 0,
            parent_id,
        };
        LOCAL.with(|ring| ring.push(&ev));
    }
}

fn collect(consume: bool) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    {
        let registry = REGISTRY.lock();
        for ring in registry.iter() {
            ring.read_into(&mut out, consume);
        }
    }
    out.sort_by_key(|e| e.ts_ns);
    out
}

/// Removes and returns every buffered event from every thread's ring,
/// ordered by timestamp. Rings that wrapped yield only their newest
/// `4096` events.
pub fn drain() -> Vec<TraceEvent> {
    collect(true)
}

/// Like [`drain`] but leaves the rings intact: the flight recorder and
/// the scrape plane read without stealing events from each other.
pub fn snapshot() -> Vec<TraceEvent> {
    collect(false)
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders events as JSON Lines: one object per event, nanosecond
/// timestamps, ids as 16-digit hex strings (hex, not numbers, because
/// u64 ids do not survive a round trip through JSON's f64), suitable for
/// `jq`/log shippers and for [`merge_chrome_trace`].
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let kind = match ev.kind {
            TraceKind::Span => "span",
            TraceKind::Instant => "instant",
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{kind}\",\"ts_ns\":{},\"dur_ns\":{},\"thread\":{},\
             \"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}\n",
            escape_json(ev.name()),
            ev.ts_ns,
            ev.dur_ns,
            ev.thread,
            ev.trace_id,
            ev.span_id,
            ev.parent_id,
        ));
    }
    out
}

/// One Chrome `trace_event` object for `ev` recorded in process `pid`:
/// `ph:"X"` for a span, `ph:"i"` for an instant, timestamps in
/// microseconds, trace identity under `args`. `name` arrives already
/// JSON-escaped, so [`to_chrome_trace`] and [`merge_chrome_trace`] share
/// this one writer.
fn chrome_event(name: &str, ev: &TraceEvent, pid: usize) -> String {
    let ts_us = ev.ts_ns as f64 / 1000.0;
    let phase = match ev.kind {
        TraceKind::Span => format!(
            "\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{:.3}",
            ev.dur_ns as f64 / 1000.0
        ),
        TraceKind::Instant => format!("\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us:.3}"),
    };
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"cca\",{phase},\"pid\":{pid},\"tid\":{},\
         \"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
        ev.thread, ev.trace_id, ev.span_id, ev.parent_id
    )
}

/// Renders events as a Chrome `trace_event` JSON document (`ph:"X"`
/// complete events, `ph:"i"` instants; timestamps in microseconds; trace
/// identity under `args`). Load the output at `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut body = String::new();
    for ev in events {
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&chrome_event(&escape_json(ev.name()), ev, 1));
    }
    format!("{{\"traceEvents\":[{body}],\"displayTimeUnit\":\"ns\"}}")
}

// ---------------------------------------------------------------------------
// Multi-process merge
// ---------------------------------------------------------------------------

/// Returns the raw text of `"key":<value>` in a JSONL line, starting at
/// the value.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let raw = field_raw(line, key)?;
    let digits: String = raw.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn field_hex(line: &str, key: &str) -> Option<u64> {
    let raw = field_raw(line, key)?.strip_prefix('"')?;
    let end = raw.find('"')?;
    u64::from_str_radix(&raw[..end], 16).ok()
}

/// Returns the *still-escaped* string value, so it can be re-emitted into
/// JSON verbatim.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = field_raw(line, key)?.strip_prefix('"')?;
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&raw[..i]),
            _ => i += 1,
        }
    }
    None
}

/// One event parsed back from a JSONL dump. `ev` carries everything but
/// the name (left empty); `name` keeps its escaped JSONL form so it can be
/// re-emitted verbatim.
struct MergedEvent {
    name: String,
    ev: TraceEvent,
    pid: usize,
}

/// Fuses several processes' [`to_jsonl`] dumps into one Chrome
/// `trace_event` document: each `(label, jsonl)` pair becomes a named
/// `pid` row, and every cross-process parent link (a server dispatch span
/// whose parent span lives in another process) gets a Perfetto flow arrow
/// from caller to callee. This is what turns N per-process dumps of a
/// Figure-2 pipeline into one causal timeline.
pub fn merge_chrome_trace(processes: &[(&str, &str)]) -> String {
    let mut events: Vec<MergedEvent> = Vec::new();
    let mut body = String::new();
    for (idx, (label, jsonl)) in processes.iter().enumerate() {
        let pid = idx + 1;
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(label)
        ));
        for line in jsonl.lines() {
            let (Some(name), Some(kind)) = (field_str(line, "name"), field_str(line, "kind"))
            else {
                continue;
            };
            events.push(MergedEvent {
                name: name.to_string(),
                ev: TraceEvent {
                    name: [0; NAME_CAP],
                    name_len: 0,
                    kind: if kind == "span" {
                        TraceKind::Span
                    } else {
                        TraceKind::Instant
                    },
                    ts_ns: field_u64(line, "ts_ns").unwrap_or(0),
                    dur_ns: field_u64(line, "dur_ns").unwrap_or(0),
                    thread: field_u64(line, "thread").unwrap_or(0),
                    trace_id: field_hex(line, "trace").unwrap_or(0),
                    span_id: field_hex(line, "span").unwrap_or(0),
                    parent_id: field_hex(line, "parent").unwrap_or(0),
                },
                pid,
            });
        }
    }

    // Where each span lives, for binding cross-process parent links.
    let mut span_home: std::collections::HashMap<u64, (usize, u64, u64)> =
        std::collections::HashMap::new();
    for m in events
        .iter()
        .filter(|m| m.ev.kind == TraceKind::Span && m.ev.span_id != 0)
    {
        span_home.insert(m.ev.span_id, (m.pid, m.ev.ts_ns, m.ev.thread));
    }

    for m in &events {
        body.push(',');
        body.push_str(&chrome_event(&m.name, &m.ev, m.pid));
    }

    // Flow arrows for parent links that cross a process boundary.
    for m in events
        .iter()
        .filter(|m| m.ev.kind == TraceKind::Span && m.ev.parent_id != 0)
    {
        let Some(&(ppid, pts_ns, ptid)) = span_home.get(&m.ev.parent_id) else {
            continue;
        };
        if ppid == m.pid {
            continue;
        }
        body.push_str(&format!(
            ",{{\"name\":\"rpc\",\"cat\":\"cca\",\"ph\":\"s\",\"id\":{},\"pid\":{ppid},\
             \"tid\":{ptid},\"ts\":{:.3}}}",
            m.ev.span_id,
            pts_ns as f64 / 1000.0
        ));
        body.push_str(&format!(
            ",{{\"name\":\"rpc\",\"cat\":\"cca\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
             \"pid\":{},\"tid\":{},\"ts\":{:.3}}}",
            m.ev.span_id,
            m.pid,
            m.ev.thread,
            m.ev.ts_ns as f64 / 1000.0
        ));
    }

    format!("{{\"traceEvents\":[{body}],\"displayTimeUnit\":\"ns\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags;

    // Flag toggles are process-global; serialize the tests that flip them.
    use crate::flags::TEST_LOCK;

    #[test]
    fn span_and_instant_round_trip() {
        let _guard = TEST_LOCK.lock();
        flags::set_tracing(true);
        drain();
        {
            let s = span("getPort");
            assert!(s.start.is_some());
            trace_instant("connected");
        }
        flags::set_tracing(false);
        let events = drain();
        assert_eq!(events.len(), 2);
        // Ordered by timestamp: the instant fires before the span closes
        // but the span's ts is its *start*, which is earlier still.
        assert_eq!(events[0].name(), "getPort");
        assert_eq!(events[0].kind, TraceKind::Span);
        assert_eq!(events[1].name(), "connected");
        assert_eq!(events[1].kind, TraceKind::Instant);
        assert_eq!(events[1].dur_ns, 0);
        // The instant is attached to the enclosing span's trace.
        assert_ne!(events[0].trace_id, 0);
        assert_eq!(events[1].trace_id, events[0].trace_id);
        assert_eq!(events[1].parent_id, events[0].span_id);

        let jsonl = to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"kind\":\"span\""));
        assert!(jsonl.contains("\"name\":\"connected\""));
        assert!(jsonl.contains(&format!("\"trace\":\"{:016x}\"", events[0].trace_id)));

        let chrome = to_chrome_trace(&events);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"args\":{\"trace\":"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = TEST_LOCK.lock();
        flags::set_tracing(false);
        drain();
        let s = span("ignored");
        assert!(s.start.is_none());
        assert!(s.context().is_none());
        drop(s);
        trace_instant("ignored");
        assert!(current_context().is_none());
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let _guard = TEST_LOCK.lock();
        flags::set_tracing(true);
        drain();
        {
            let outer = span("outer");
            let octx = outer.context().unwrap();
            {
                let inner = span("inner");
                let ictx = inner.context().unwrap();
                assert_eq!(ictx.trace_id, octx.trace_id);
                assert_ne!(ictx.span_id, octx.span_id);
                // The current context follows the innermost live span.
                assert_eq!(current_context(), Some(ictx));
            }
            assert_eq!(current_context(), Some(octx));
        }
        flags::set_tracing(false);
        let events = drain();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name() == "outer").unwrap();
        let inner = events.iter().find(|e| e.name() == "inner").unwrap();
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(outer.parent_id, 0);
    }

    #[test]
    fn installed_context_parents_local_spans() {
        let _guard = TEST_LOCK.lock();
        flags::set_tracing(true);
        drain();
        let remote = TraceContext {
            trace_id: 0xabcd,
            span_id: 0x1234,
        };
        {
            let g = install_context(Some(remote));
            assert_eq!(current_context(), Some(remote));
            let _s = span("dispatch");
            drop(_s);
            drop(g);
        }
        assert!(current_context().is_none());
        flags::set_tracing(false);
        let events = drain();
        let dispatch = events.iter().find(|e| e.name() == "dispatch").unwrap();
        assert_eq!(dispatch.trace_id, remote.trace_id);
        assert_eq!(dispatch.parent_id, remote.span_id);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn long_names_truncate_at_char_boundary() {
        let (_, len) = pack_name(&"é".repeat(20)); // 40 bytes of 2-byte chars
        assert_eq!(len, 32);
        let (buf, len) = pack_name(&format!("{}é", "a".repeat(31))); // é spans 31..33
        assert_eq!(len, 31);
        assert_eq!(std::str::from_utf8(&buf[..len as usize]).unwrap().len(), 31);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = Ring::new(7);
        let (name, name_len) = pack_name("x");
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(&TraceEvent {
                name,
                name_len,
                kind: TraceKind::Instant,
                ts_ns: i,
                dur_ns: 0,
                thread: 0,
                trace_id: 1,
                span_id: 0,
                parent_id: 2,
            });
        }
        let mut out = Vec::new();
        ring.read_into(&mut out, true);
        assert_eq!(out.len(), RING_CAP);
        // Oldest surviving event is #10.
        let min = out.iter().map(|e| e.ts_ns).min().unwrap();
        assert_eq!(min, 10);
        assert!(out.iter().all(|e| e.thread == 7 && e.trace_id == 1));
        // Consumed: a second read yields nothing new.
        let mut again = Vec::new();
        ring.read_into(&mut again, false);
        assert!(again.is_empty());
    }

    #[test]
    fn snapshot_does_not_consume() {
        let _guard = TEST_LOCK.lock();
        flags::set_tracing(true);
        drain();
        trace_instant("kept");
        flags::set_tracing(false);
        let first = snapshot();
        assert!(first.iter().any(|e| e.name() == "kept"));
        let second = snapshot();
        assert!(second.iter().any(|e| e.name() == "kept"));
        let drained = drain();
        assert!(drained.iter().any(|e| e.name() == "kept"));
        assert!(drain().is_empty());
    }

    #[test]
    fn concurrent_reads_see_only_intact_events() {
        // Hammer one ring directly: a single writer races a reader that
        // snapshots without consuming. Torn slots must never decode.
        let ring = Arc::new(Ring::new(0));
        let writer_ring = Arc::clone(&ring);
        let writer = std::thread::spawn(move || {
            let (even, even_len) = pack_name("even-event");
            let (odd, odd_len) = pack_name("odd-event-name");
            for i in 0..200_000u64 {
                let (name, name_len) = if i % 2 == 0 {
                    (even, even_len)
                } else {
                    (odd, odd_len)
                };
                writer_ring.push(&TraceEvent {
                    name,
                    name_len,
                    kind: TraceKind::Instant,
                    ts_ns: i,
                    dur_ns: i ^ 0x5a5a,
                    thread: 0,
                    trace_id: 0xfeed,
                    span_id: i,
                    parent_id: !i,
                });
            }
        });
        let mut rounds = 0usize;
        while !writer.is_finished() {
            let mut out = Vec::new();
            ring.read_into(&mut out, false);
            for ev in &out {
                let ok = (ev.name() == "even-event" && ev.ts_ns % 2 == 0)
                    || (ev.name() == "odd-event-name" && ev.ts_ns % 2 == 1);
                assert!(ok, "torn event leaked: {:?} ts={}", ev.name(), ev.ts_ns);
                assert_eq!(ev.trace_id, 0xfeed);
                assert_eq!(ev.span_id, ev.ts_ns);
                assert_eq!(ev.parent_id, !ev.ts_ns);
                assert_eq!(ev.dur_ns, ev.ts_ns ^ 0x5a5a);
            }
            rounds += 1;
        }
        writer.join().unwrap();
        let mut out = Vec::new();
        ring.read_into(&mut out, true);
        assert_eq!(out.len(), RING_CAP);
        assert!(rounds > 0);
    }

    #[test]
    fn merge_links_cross_process_spans() {
        // Hand-built two-process dump: client call span 0x11 in trace
        // 0xaa, server dispatch span 0x22 parented to 0x11.
        let client = "{\"name\":\"rpc.mux.call\",\"kind\":\"span\",\"ts_ns\":1000,\
                      \"dur_ns\":5000,\"thread\":0,\
                      \"trace\":\"00000000000000aa\",\"span\":\"0000000000000011\",\
                      \"parent\":\"0000000000000000\"}\n";
        let server = "{\"name\":\"rpc.dispatch\",\"kind\":\"span\",\"ts_ns\":2000,\
                      \"dur_ns\":1000,\"thread\":3,\
                      \"trace\":\"00000000000000aa\",\"span\":\"0000000000000022\",\
                      \"parent\":\"0000000000000011\"}\n";
        let merged = merge_chrome_trace(&[("client", client), ("server", server)]);
        assert!(merged.contains("\"process_name\""));
        assert!(merged.contains("\"args\":{\"name\":\"client\"}"));
        assert!(merged.contains("\"args\":{\"name\":\"server\"}"));
        // Both spans present under their own pids.
        assert!(merged.contains("\"name\":\"rpc.mux.call\",\"cat\":\"cca\",\"ph\":\"X\""));
        assert!(merged.contains("\"pid\":2,\"tid\":3"));
        // The cross-process link becomes a flow arrow pair.
        assert!(merged.contains("\"ph\":\"s\",\"id\":34,\"pid\":1"));
        assert!(merged.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":34,\"pid\":2"));
    }

    #[allow(clippy::too_many_arguments)]
    fn event(
        name: &str,
        kind: TraceKind,
        ts_ns: u64,
        dur_ns: u64,
        thread: u64,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
    ) -> TraceEvent {
        let (name, name_len) = pack_name(name);
        TraceEvent {
            name,
            name_len,
            kind,
            ts_ns,
            dur_ns,
            thread,
            trace_id,
            span_id,
            parent_id,
        }
    }

    #[test]
    fn chrome_trace_output_is_pinned() {
        let events = [
            event("getPort", TraceKind::Span, 1_500, 2_250, 3, 0xaa, 0x11, 0),
            event("connected", TraceKind::Instant, 2_000, 0, 3, 0xaa, 0, 0x11),
            event(
                "a\"b\\c\nd",
                TraceKind::Span,
                4_001,
                999,
                0,
                0xaa,
                0x12,
                0x11,
            ),
        ];
        assert_eq!(
            to_chrome_trace(&events),
            "{\"traceEvents\":[\
             {\"name\":\"getPort\",\"cat\":\"cca\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.250,\
             \"pid\":1,\"tid\":3,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000011\",\"parent\":\"0000000000000000\"}},\
             {\"name\":\"connected\",\"cat\":\"cca\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,\
             \"pid\":1,\"tid\":3,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000000\",\"parent\":\"0000000000000011\"}},\
             {\"name\":\"a\\\"b\\\\c\\nd\",\"cat\":\"cca\",\"ph\":\"X\",\"ts\":4.001,\
             \"dur\":0.999,\"pid\":1,\"tid\":0,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000012\",\"parent\":\"0000000000000011\"}}\
             ],\"displayTimeUnit\":\"ns\"}"
        );
    }

    #[test]
    fn merged_chrome_trace_output_is_pinned() {
        let client = to_jsonl(&[
            event(
                "rpc.mux.call",
                TraceKind::Span,
                1_000,
                5_000,
                0,
                0xaa,
                0x11,
                0,
            ),
            event("say \"hi\"", TraceKind::Instant, 1_500, 0, 0, 0xaa, 0, 0x11),
        ]);
        let server = to_jsonl(&[event(
            "rpc.dispatch",
            TraceKind::Span,
            2_000,
            1_000,
            3,
            0xaa,
            0x22,
            0x11,
        )]);
        assert_eq!(
            merge_chrome_trace(&[("client", &client), ("server", &server)]),
            "{\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"client\"}},\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"server\"}},\
             {\"name\":\"rpc.mux.call\",\"cat\":\"cca\",\"ph\":\"X\",\"ts\":1.000,\
             \"dur\":5.000,\"pid\":1,\"tid\":0,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000011\",\"parent\":\"0000000000000000\"}},\
             {\"name\":\"say \\\"hi\\\"\",\"cat\":\"cca\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":1.500,\"pid\":1,\"tid\":0,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000000\",\"parent\":\"0000000000000011\"}},\
             {\"name\":\"rpc.dispatch\",\"cat\":\"cca\",\"ph\":\"X\",\"ts\":2.000,\
             \"dur\":1.000,\"pid\":2,\"tid\":3,\"args\":{\"trace\":\"00000000000000aa\",\
             \"span\":\"0000000000000022\",\"parent\":\"0000000000000011\"}},\
             {\"name\":\"rpc\",\"cat\":\"cca\",\"ph\":\"s\",\"id\":34,\"pid\":1,\"tid\":0,\
             \"ts\":1.000},\
             {\"name\":\"rpc\",\"cat\":\"cca\",\"ph\":\"f\",\"bp\":\"e\",\"id\":34,\"pid\":2,\
             \"tid\":3,\"ts\":2.000}\
             ],\"displayTimeUnit\":\"ns\"}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
