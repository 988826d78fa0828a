//! cca-bench: the one harness every experiment under `benches/` uses.
//!
//! * [`Harness`] owns calibration, sampling and the estimator. Every timed
//!   quantity is a [`Stats`] `{median, p10, p90, n}`; A/B pairs are timed in
//!   alternating rounds so both sides see the same drift.
//! * [`Report`] owns the artifact: `BENCH_<experiment>.json`, schema
//!   `cca-bench/2`, a host block, the metrics, and the gates — each declared
//!   next to the metric it bounds — published with one atomic tmp+rename.
//!   Every failing gate is listed before the process exits nonzero.
//! * [`Json`] is the only JSON reader and writer `crates/` keeps.
//! * [`fixtures`] holds the components several experiments measure.
//!
//! **The gated value is the quiet-box decile.** On a shared box interference
//! is one-sided — a co-tenant's burst makes a unit of work slower, never
//! faster — so across runs the lower decile of unit times holds still where
//! their median wanders (ccabench measured quartile spreads of 3.3 % against
//! 7.0 % on `hydro_direct`). An upper bound therefore gates `p10`, a lower
//! bound (a rate or a speed-up) gates `p90`. Where a burst can land on
//! either side of a derived quantity — a ratio of two rates, a difference
//! of two timings — neither decile is the quiet-box reading, and the
//! `median_*` forms gate the median instead.
//!
//! **Every gate is bound to its own run.** A bound is a count or a ratio
//! of two quantities timed in the same process, so it means the same on
//! any host; the host block is a record of where the numbers came from,
//! never a denominator.
//!
//! Two environment variables, no others: `CCA_BENCH_FAST` shrinks sample
//! counts and workload sizes for CI; `CCA_BENCH_OUT_DIR` redirects the
//! artifacts away from the committed copies in `crates/bench/results/`.

#![forbid(unsafe_code)]

pub use json::Json;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Middle sample (mean of the middle two for an even count).
    pub median: f64,
    /// Lower decile, nearest rank.
    pub p10: f64,
    /// Upper decile, nearest rank.
    pub p90: f64,
    /// Number of samples summarised.
    pub n: usize,
}

impl Stats {
    /// Summarises a non-empty, NaN-free sample set.
    pub fn from_samples(samples: &[f64]) -> Stats {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let n = sorted.len();
        assert!(n > 0, "a metric needs at least one sample");
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Stats {
            median,
            p10: sorted[n.div_ceil(10) - 1],
            p90: sorted[(9 * n).div_ceil(10) - 1],
            n,
        }
    }

    /// Summarises the medians of consecutive blocks of `block` samples: the
    /// form for per-operation latencies, where a block median is one
    /// "typical operation" reading and the spread is across blocks.
    pub fn from_blocks(samples: &[f64], block: usize) -> Stats {
        let medians: Vec<f64> = samples
            .chunks(block.max(1))
            .map(|b| Stats::from_samples(b).median)
            .collect();
        Stats::from_samples(&medians)
    }

    /// One observation — a count, or a quantity measured once.
    pub fn single(value: f64) -> Stats {
        Stats::from_samples(&[value])
    }

    /// The same samples in another unit (`k` units per old unit).
    pub fn scaled(self, k: f64) -> Stats {
        Stats {
            median: self.median * k,
            p10: self.p10 * k,
            p90: self.p90 * k,
            n: self.n,
        }
    }
}

/// Per-round samples of closures timed in alternating rounds: `self.0[i]`
/// holds closure `i`'s ns/iter, one entry per round.
pub struct Rounds(pub Vec<Vec<f64>>);

impl Rounds {
    /// Closure `i`'s ns/iter across rounds.
    pub fn stats(&self, i: usize) -> Stats {
        Stats::from_samples(&self.0[i])
    }

    /// A quantity computed within each round from that round's sample of
    /// every closure (`f(&[a, b, ..])`), summarised across rounds. A ratio
    /// formed this way compares neighbours in time, so clock or cache drift
    /// between two long separate windows cannot fail a gate — a genuinely
    /// slower probe is slower in every round.
    pub fn derive(&self, f: impl Fn(&[f64]) -> f64) -> Stats {
        let per_round: Vec<f64> = (0..self.0[0].len())
            .map(|r| f(&self.0.iter().map(|s| s[r]).collect::<Vec<_>>()))
            .collect();
        Stats::from_samples(&per_round)
    }
}

/// An A/B pair timed in alternating rounds.
pub struct Pair {
    /// The baseline closure, ns/iter.
    pub baseline: Stats,
    /// The probe closure, ns/iter.
    pub probe: Stats,
    /// Per-round `probe / baseline`.
    pub ratio: Stats,
}

/// Calibration, sampling and sizing for one bench process.
pub struct Harness {
    fast: bool,
}

impl Harness {
    /// Reads `CCA_BENCH_FAST` and puts `cca-obs` in its known-off state, so
    /// a bench measures the same thing whatever its environment says.
    pub fn from_env() -> Harness {
        cca_obs::set_tracing(false);
        cca_obs::set_counters(false);
        Harness {
            fast: std::env::var_os("CCA_BENCH_FAST").is_some(),
        }
    }

    /// `fast` under `CCA_BENCH_FAST`, `full` otherwise.
    pub fn pick<T>(&self, fast: T, full: T) -> T {
        if self.fast {
            fast
        } else {
            full
        }
    }

    fn round_count(&self) -> usize {
        self.pick(7, 15)
    }

    fn batch_target(&self) -> Duration {
        Duration::from_millis(self.pick(2, 8))
    }

    /// Times every batch once per round, in order, for 15 rounds (7 in fast
    /// mode); each batch size is calibrated to ~8 ms (2 ms). Build the
    /// entries with [`batch`].
    pub fn rounds(&self, fns: &mut [&mut dyn FnMut(u64)]) -> Rounds {
        let target = self.batch_target();
        let iters: Vec<u64> = fns.iter_mut().map(|f| calibrate(target, f)).collect();
        let mut samples = vec![Vec::new(); fns.len()];
        for _ in 0..self.round_count() {
            for (i, f) in fns.iter_mut().enumerate() {
                samples[i].push(time_batch(iters[i], f));
            }
        }
        Rounds(samples)
    }

    /// ns/iter of one closure.
    pub fn time<R>(&self, f: impl FnMut() -> R) -> Stats {
        self.rounds(&mut [&mut batch(f)]).stats(0)
    }

    /// ns/iter of `baseline` and `probe` in alternating rounds.
    pub fn ratio<A, B>(&self, baseline: impl FnMut() -> A, probe: impl FnMut() -> B) -> Pair {
        let rounds = self.rounds(&mut [&mut batch(baseline), &mut batch(probe)]);
        Pair {
            baseline: rounds.stats(0),
            probe: rounds.stats(1),
            ratio: rounds.derive(|s| s[1] / s[0]),
        }
    }

    /// ns/iter of `routine` on state that `setup` rebuilds, untimed, before
    /// every sample — for routines that consume or age their input.
    pub fn time_with_setup<S, R>(
        &self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(&mut S) -> R,
    ) -> Stats {
        let mut state = setup();
        let iters = calibrate(self.batch_target(), &mut batch(|| routine(&mut state)));
        let samples: Vec<f64> = (0..self.round_count())
            .map(|_| {
                let mut state = setup();
                let mut run = batch(|| routine(&mut state));
                time_batch(iters, &mut run)
            })
            .collect();
        Stats::from_samples(&samples)
    }
}

/// The timed loop around one measured closure: `batch(f)(iters)` calls `f`
/// `iters` times and `black_box`es each result. The loop is compiled with
/// the closure, so the harness's own indirection is paid once per batch,
/// never per call.
pub fn batch<R>(mut f: impl FnMut() -> R) -> impl FnMut(u64) {
    move |iters| {
        for _ in 0..iters {
            black_box(f());
        }
    }
}

/// 100 chained calls of `step` as one measured closure (the accumulator is
/// threaded through), for rungs too cheap to time one call at a time.
pub fn hundred<T: Copy>(init: T, mut step: impl FnMut(T) -> T) -> impl FnMut() -> T {
    move || {
        let mut acc = init;
        for _ in 0..100 {
            acc = step(acc);
        }
        acc
    }
}

fn time_batch(iters: u64, f: &mut dyn FnMut(u64)) -> f64 {
    let start = Instant::now();
    f(iters);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Grows a batch size until one batch of `f` takes roughly `target`.
fn calibrate(target: Duration, f: &mut dyn FnMut(u64)) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        f(iters);
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 28 {
            return iters;
        }
        iters = if elapsed.is_zero() {
            iters * 16
        } else {
            let scale = target.as_secs_f64() / elapsed.as_secs_f64();
            ((iters as f64 * scale.clamp(1.2, 16.0)) as u64).max(iters + 1)
        };
    }
}

struct Gate {
    metric: String,
    op: &'static str,
    bound: f64,
    value: f64,
    pass: bool,
    why: String,
}

/// One experiment's artifact, built metric by metric.
pub struct Report {
    experiment: String,
    host: Json,
    metrics: Vec<(String, Stats)>,
    gates: Vec<Gate>,
}

/// The metric a [`Report`] recorded last, ready to take the gates that
/// bound it.
pub struct Recorded<'a>(&'a mut Report);

/// A gate's line in the artifact and on stdout.
fn status(pass: bool) -> &'static str {
    if pass {
        "pass"
    } else {
        "FAIL"
    }
}

impl Report {
    /// Starts the report for `experiment` (the bench target's name).
    pub fn new(experiment: &str, harness: &Harness) -> Report {
        Report {
            experiment: experiment.to_string(),
            host: host_block(harness.fast),
            metrics: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records and prints a metric.
    pub fn metric(&mut self, key: &str, stats: Stats) -> Recorded<'_> {
        println!(
            "{}/{key:<40} {:>14.3}  (p10 {:.3}, p90 {:.3}, n {})",
            self.experiment, stats.median, stats.p10, stats.p90, stats.n
        );
        self.metrics.push((key.to_string(), stats));
        Recorded(self)
    }

    /// Records a count or a quantity observed once.
    pub fn count(&mut self, key: &str, value: f64) -> Recorded<'_> {
        self.metric(key, Stats::single(value))
    }

    fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    fn to_json(&self) -> Json {
        let num = Json::Num;
        let metrics = self.metrics.iter().map(|(key, s)| {
            let stats = [
                ("median", num(s.median)),
                ("p10", num(s.p10)),
                ("p90", num(s.p90)),
                ("n", num(s.n as f64)),
            ];
            (key.clone(), Json::obj(stats))
        });
        let gates = self.gates.iter().map(|g| {
            Json::obj([
                ("metric", Json::Str(g.metric.clone())),
                ("op", Json::Str(g.op.to_string())),
                ("bound", num(g.bound)),
                ("value", num(g.value)),
                ("status", Json::Str(status(g.pass).into())),
                ("why", Json::Str(g.why.clone())),
            ])
        });
        Json::obj([
            ("schema", Json::Str("cca-bench/2".into())),
            ("experiment", Json::Str(self.experiment.clone())),
            ("host", self.host.clone()),
            ("metrics", Json::Obj(metrics.collect())),
            ("gates", Json::Arr(gates.collect())),
        ])
    }

    /// One line per failing gate.
    fn failures(&self) -> Vec<String> {
        self.gates
            .iter()
            .filter(|g| !g.pass)
            .map(|g| {
                format!(
                    "{}: {} = {:.3} must be {} {:.3} — {}",
                    self.experiment, g.metric, g.value, g.op, g.bound, g.why
                )
            })
            .collect()
    }

    /// Publishes `BENCH_<experiment>.json`, then lists every failing gate
    /// and exits nonzero if there is one.
    pub fn finish(self) {
        let dir = std::env::var_os("CCA_BENCH_OUT_DIR").map_or_else(committed_dir, PathBuf::from);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        let path = dir.join(self.file_name());
        publish(&path, &self.to_json().render())
            .unwrap_or_else(|e| panic!("publish {}: {e}", path.display()));
        println!("wrote {}", path.display());
        let failures = self.failures();
        for line in &failures {
            eprintln!("GATE FAILED  {line}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
    }
}

impl Recorded<'_> {
    fn stats(&self) -> Stats {
        self.0.metrics.last().expect("metric() pushed one").1
    }

    fn gate(self, op: &'static str, bound: f64, value: f64, pass: bool, why: &str) -> Self {
        let metric = self
            .0
            .metrics
            .last()
            .expect("metric() pushed one")
            .0
            .clone();
        println!("    gate: {metric} {op} {bound:.3}  [{}]", status(pass));
        self.0.gates.push(Gate {
            metric,
            op,
            bound,
            value,
            pass,
            why: why.to_string(),
        });
        self
    }

    /// Gates the lower decile at `≤ bound`.
    pub fn at_most(self, bound: f64, why: &str) -> Self {
        let value = self.stats().p10;
        self.gate("<=", bound, value, value <= bound, why)
    }

    /// Gates the upper decile at `≥ bound`.
    pub fn at_least(self, bound: f64, why: &str) -> Self {
        let value = self.stats().p90;
        self.gate(">=", bound, value, value >= bound, why)
    }

    /// Gates the median at `≥ bound`: the form for a same-run ratio of two
    /// rates, where a co-tenant's burst can land on either side of the
    /// ratio, so neither decile is the quiet-box reading.
    pub fn median_at_least(self, bound: f64, why: &str) -> Self {
        let value = self.stats().median;
        self.gate(">=", bound, value, value >= bound, why)
    }

    /// Gates the median at `≤ bound`: the form for a same-run quantity a
    /// burst can push either way — a difference of two timings, where a
    /// burst on the subtracted side lowers that round's reading, or a
    /// ratio of two kernels that load slows alike — so the lower decile is
    /// the round least able to show a regression.
    pub fn median_at_most(self, bound: f64, why: &str) -> Self {
        let value = self.stats().median;
        self.gate("<=", bound, value, value <= bound, why)
    }

    /// Gates a count at exactly `expected`.
    pub fn exactly(self, expected: f64, why: &str) -> Self {
        let value = self.stats().median;
        self.gate("==", expected, value, value == expected, why)
    }
}

/// Where the committed artifacts live.
pub fn committed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn stage(path: &Path, text: &str) -> std::io::Result<PathBuf> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)?;
    Ok(tmp)
}

/// Write beside the target, then rename over it: a run killed at any point
/// leaves either the old artifact or the new one, never a truncated file.
fn publish(path: &Path, text: &str) -> std::io::Result<()> {
    std::fs::rename(stage(path, text)?, path)
}

/// Where a number was measured: the fields ccabench stamps, plus the mode.
fn host_block(fast: bool) -> Json {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let cpu_model = read("/proc/cpuinfo").and_then(|text| {
        let line = text.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split(':').nth(1)?.trim().to_string())
    });
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    let text = |s: Option<String>| Json::Str(s.map_or("unknown".into(), |s| s.trim().to_string()));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("cpu_model", text(cpu_model)),
        ("logical_cpus", Json::Num(cpus as f64)),
        ("kernel", text(read("/proc/sys/kernel/osrelease"))),
        ("rustc", text(rustc)),
        ("fast", Json::Bool(fast)),
    ])
}

/// A small JSON value with a recursive-descent reader and a pretty writer
/// (the workspace vendors no serde). Objects keep their keys in document
/// order, so an artifact reads back the way its bench declared it.
mod json {
    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, keys in document order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An object from `(key, value)` pairs, in the order given.
        pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
            Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
        }

        /// Parses one complete JSON document.
        pub fn parse(src: &str) -> Result<Json, String> {
            let mut p = Parser {
                bytes: src.as_bytes(),
                pos: 0,
            };
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.error("trailing garbage"));
            }
            Ok(v)
        }

        /// The value under `key`, if this is an object that has it.
        pub fn get(&self, key: &str) -> Option<&Json> {
            self.entries()
                .iter()
                .find_map(|(k, v)| (k == key).then_some(v))
        }

        /// An object's entries in document order (empty for anything else).
        pub fn entries(&self) -> &[(String, Json)] {
            match self {
                Json::Obj(entries) => entries,
                _ => &[],
            }
        }

        /// An array's items (empty for anything else).
        pub fn items(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                _ => &[],
            }
        }

        /// The number, if this is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The string, if this is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Pretty-prints with two-space indentation and a trailing newline.
        /// Numbers carry at most three decimals; a non-finite one is `null`.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, depth: usize) {
            let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) if !n.is_finite() => out.push_str("null"),
                Json::Num(n) => {
                    let text = format!("{n:.3}");
                    out.push_str(text.trim_end_matches('0').trim_end_matches('.'));
                }
                Json::Str(s) => write_string(out, s),
                Json::Arr(items) if items.is_empty() => out.push_str("[]"),
                Json::Arr(items) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, depth + 1);
                        item.write(out, depth + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push(']');
                }
                Json::Obj(entries) if entries.is_empty() => out.push_str("{}"),
                // Leaves of the document — one metric, one gate — stay on a line.
                Json::Obj(entries) if entries.iter().all(|(_, v)| v.is_scalar()) && depth > 1 => {
                    out.push('{');
                    for (i, (key, value)) in entries.iter().enumerate() {
                        write_string(out, key);
                        out.push_str(": ");
                        value.write(out, depth);
                        out.push_str(if i + 1 < entries.len() { ", " } else { "}" });
                    }
                }
                Json::Obj(entries) => {
                    out.push_str("{\n");
                    for (i, (key, value)) in entries.iter().enumerate() {
                        pad(out, depth + 1);
                        write_string(out, key);
                        out.push_str(": ");
                        value.write(out, depth + 1);
                        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push('}');
                }
            }
        }

        fn is_scalar(&self) -> bool {
            !matches!(self, Json::Arr(_) | Json::Obj(_))
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn error(&self, what: &str) -> String {
            format!("{what} at byte {}", self.pos)
        }

        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, expected: u8) -> Result<(), String> {
            match self.peek() {
                Some(b) if b == expected => {
                    self.pos += 1;
                    Ok(())
                }
                _ => Err(self.error(&format!("expected '{}'", expected as char))),
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err(self.error("unexpected end of input")),
            }
        }

        fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(self.error(&format!("expected '{text}'")))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            let mut entries = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                entries.push((key, self.value()?));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(self.error("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.error("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| self.error("bad \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| self.error("bad \\u escape"))?;
                                // Surrogate pairs don't occur in bench output;
                                // map lone surrogates to the replacement char.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.error("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character (input is a valid &str).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                        let ch = rest.chars().next().unwrap();
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            self.skip_ws();
            let start = self.pos;
            while matches!(
                self.bytes.get(self.pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| self.error("bad number"))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn reader_handles_the_shapes_benches_emit() {
            let v =
                Json::parse(r#"{"schema":"cca-bench/2","xs":[1,2.5,-3e2],"ok":true,"s":"a\"bA"}"#)
                    .unwrap();
            assert_eq!(v.get("schema").unwrap().as_str(), Some("cca-bench/2"));
            assert_eq!(
                v.get("xs").unwrap().items(),
                [Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)]
            );
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(v.get("s").unwrap().as_str(), Some("a\"bA"));
            assert!(Json::parse("{\"truncated\":").is_err());
            assert!(Json::parse("{} trailing").is_err());
            assert!(Json::parse("").is_err());
        }

        #[test]
        fn writer_output_reads_back_equal() {
            let doc = Json::obj([
                (
                    "text",
                    Json::Str("tab\there \"quoted\" back\\slash\n".into()),
                ),
                ("n", Json::Num(44680.0)),
                ("ratio", Json::Num(1.007)),
                ("nothing", Json::Null),
                ("empty", Json::Arr(vec![])),
                (
                    "nested",
                    Json::obj([("leaf", Json::obj([("a", Json::Num(-0.5))]))]),
                ),
            ]);
            let text = doc.render();
            assert_eq!(Json::parse(&text).unwrap(), doc);
            assert!(text.contains("\"n\": 44680,"), "{text}");
            assert!(text.contains("{\"a\": -0.5}"), "{text}");
            assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        }
    }
}

/// The components more than one experiment measures, each defined once.
/// They are the code *around* the measurement — what a bench times is the
/// `cca-core` / `cca-rpc` path that reaches them.
pub mod fixtures {
    use cca_core::resilience::{BreakerPolicy, CallPolicy, MockClock};
    use cca_core::{CcaError, CcaServices, PortHandle};
    use cca_data::TypeMap;
    use cca_sidl::{DynObject, DynValue, SidlError};
    use std::sync::Arc;

    /// A port whose body is comparable to a tight numerical kernel invocation.
    pub trait WorkPort: Send + Sync {
        /// One multiply-add.
        fn accumulate(&self, x: f64) -> f64;
    }

    /// The [`WorkPort`] provider.
    pub struct WorkImpl {
        /// Added to every result.
        pub bias: f64,
    }

    impl WorkPort for WorkImpl {
        fn accumulate(&self, x: f64) -> f64 {
            x * 1.0000001 + self.bias
        }
    }

    impl DynObject for WorkImpl {
        fn sidl_type(&self) -> &str {
            "bench.WorkPort"
        }
        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "accumulate" => Ok(DynValue::Double(self.accumulate(args[0].as_double()?))),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    fn wire(policy: Option<CallPolicy>) -> Arc<CcaServices> {
        let provider = CcaServices::new("provider");
        let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
        provider
            .add_provides_port(PortHandle::new("work", "bench.WorkPort", obj))
            .unwrap();
        let user = CcaServices::new("user");
        user.register_uses_port("in", "bench.WorkPort", TypeMap::new())
            .unwrap();
        if let Some(policy) = policy {
            user.set_call_policy("in", Arc::new(policy)).unwrap();
        }
        user.connect_uses("in", provider.get_provides_port("work").unwrap())
            .unwrap();
        user
    }

    /// One provider connected to the returned user's uses port `"in"`.
    pub fn wire_single() -> Arc<CcaServices> {
        wire(None)
    }

    /// [`wire_single`] with a call policy (closed breaker, generous threshold)
    /// installed on the uses slot before connecting, so the delivered handle
    /// carries a breaker.
    pub fn wire_guarded() -> Arc<CcaServices> {
        wire(Some(
            CallPolicy::with_clock(MockClock::new())
                .with_breaker(BreakerPolicy::new(1_000_000, 1_000)),
        ))
    }

    /// `n` listeners connected to the returned emitter's uses port `"events"`.
    pub fn wire_fanout(n: usize) -> Arc<CcaServices> {
        let user = CcaServices::new("emitter");
        user.register_uses_port("events", "bench.WorkPort", TypeMap::new())
            .unwrap();
        for i in 0..n {
            let provider = CcaServices::new(format!("listener{i}"));
            let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: i as f64 });
            provider
                .add_provides_port(PortHandle::new("in", "bench.WorkPort", obj))
                .unwrap();
            user.connect_uses("events", provider.get_provides_port("in").unwrap())
                .unwrap();
        }
        user
    }

    /// PR-1's `CachedPort`, transplanted verbatim (modulo the public
    /// `generation()` accessor) and compiled against today's `CcaServices`:
    /// generation load, staleness compare against the `Option` memo,
    /// out-of-line revalidation through `get_port_as`. No flag check, no
    /// metrics, no breaker — the baseline the E10 and E11 gates measure
    /// against, rebuilt here so the comparison survives refactors of the real
    /// type.
    pub struct Pr1Replica<P: ?Sized + Send + Sync + 'static> {
        services: Arc<CcaServices>,
        name: Arc<str>,
        seen_generation: u64,
        port: Option<Arc<P>>,
    }

    impl<P: ?Sized + Send + Sync + 'static> Pr1Replica<P> {
        /// A replica for the uses port `name` of `services`.
        pub fn new(services: Arc<CcaServices>, name: impl Into<Arc<str>>) -> Self {
            Pr1Replica {
                services,
                name: name.into(),
                seen_generation: 0,
                port: None,
            }
        }

        /// The memoized port, revalidated when the generation moved.
        #[inline]
        pub fn get(&mut self) -> Result<&Arc<P>, CcaError> {
            let generation = self.services.generation();
            if self.port.is_none() || generation != self.seen_generation {
                self.revalidate(generation)?;
            }
            Ok(self.port.as_ref().unwrap())
        }

        #[cold]
        fn revalidate(&mut self, generation: u64) -> Result<(), CcaError> {
            self.port = None;
            let resolved = self.services.get_port_as::<P>(&self.name)?;
            self.port = Some(resolved);
            self.seen_generation = generation;
            Ok(())
        }
    }

    /// A servant that returns its first argument.
    pub struct Echo;

    impl DynObject for Echo {
        fn sidl_type(&self) -> &str {
            "bench.Echo"
        }
        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "echo" => Ok(args.into_iter().next().unwrap_or(DynValue::Double(0.0))),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cca-bench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn selftest() -> Report {
        Report::new("selftest", &Harness { fast: true })
    }

    #[test]
    fn estimator_orders_its_quantiles_and_honours_n() {
        for n in [1, 2, 7, 10, 11, 15, 100] {
            let s = Stats::from_samples(&ramp(n));
            assert!(s.p10 <= s.median && s.median <= s.p90, "{s:?}");
            assert_eq!(s.n, n);
        }
        let s = Stats::from_samples(&ramp(100));
        assert_eq!((s.p10, s.median, s.p90), (10.0, 50.5, 90.0));
        assert_eq!(Stats::from_samples(&ramp(15)).p10, 2.0);
        assert_eq!(Stats::single(4.0), Stats::from_samples(&[4.0]));
        // Two whole blocks of three and a trailing one of one.
        let blocks = Stats::from_blocks(&[3.0, 1.0, 2.0, 6.0, 4.0, 5.0, 7.0], 3);
        assert_eq!((blocks.p10, blocks.median, blocks.n), (2.0, 5.0, 3));
    }

    #[test]
    fn one_outlier_does_not_move_p10() {
        let mut samples = ramp(15);
        let quiet = Stats::from_samples(&samples);
        samples[14] = 1e9; // a co-tenant's burst lands on one batch
        let noisy = Stats::from_samples(&samples);
        assert_eq!(noisy.p10, quiet.p10);
        assert_eq!(noisy.median, quiet.median);
        assert!(noisy.p90 <= 14.0);
    }

    #[test]
    fn harness_times_in_alternating_rounds() {
        let h = Harness { fast: true };
        let pair = h.ratio(
            || black_box(1u64) + 1,
            || (0..64).map(black_box).sum::<u64>(),
        );
        assert_eq!((pair.baseline.n, pair.probe.n, pair.ratio.n), (7, 7, 7));
        assert!(pair.baseline.p10 > 0.0 && pair.ratio.median > 1.0);
        let fresh = h.time_with_setup(Vec::<u8>::new, |v| v.push(1));
        assert_eq!(fresh.n, 7);
    }

    #[test]
    fn report_round_trips_with_keys_in_declared_order() {
        let mut report = selftest();
        report.metric("zeta_ns", Stats::from_samples(&ramp(15)));
        report
            .count("alpha", 3.0)
            .exactly(3.0, "counts gate exactly");
        report
            .metric("mid_ratio", Stats::single(1.5))
            .at_most(2.0, "upper bound")
            .at_least(1.0, "lower bound")
            .median_at_most(1.5, "upper bound on the median");
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc, report.to_json());
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("cca-bench/2"));
        assert_eq!(
            doc.get("host").unwrap().get("fast"),
            Some(&Json::Bool(true))
        );
        let keys: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["zeta_ns", "alpha", "mid_ratio"]);
        let zeta = doc.get("metrics").unwrap().get("zeta_ns").unwrap();
        assert_eq!(zeta.get("n").unwrap().as_f64(), Some(15.0));
        assert_eq!(doc.get("gates").unwrap().items().len(), 4);
        assert!(report.failures().is_empty());
    }

    #[test]
    fn every_failing_gate_is_reported() {
        let mut report = selftest();
        report
            .metric("slow_ratio", Stats::single(4.0))
            .at_most(3.0, "too slow");
        report.count("builds", 2.0).exactly(1.0, "rebuilt");
        report
            .metric("spread", Stats::from_samples(&[1.0, 5.0, 5.0]))
            .median_at_most(4.0, "median too high");
        report
            .metric("fine_ns", Stats::single(1.0))
            .at_most(2.0, "fine");
        let failures = report.failures();
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("slow_ratio") && failures[1].contains("builds"));
        // The median reads 5 though the lower decile reads 1.
        assert!(failures[2].contains("spread = 5.000"), "{failures:?}");
    }

    #[test]
    fn a_publish_killed_before_the_rename_leaves_the_old_artifact_intact() {
        let path = scratch_dir("publish").join("BENCH_selftest.json");
        publish(&path, "{\"generation\": 1}\n").unwrap();
        // The new run dies after writing its temporary file.
        stage(&path, "{\"generation\": 2, \"trunc").unwrap();
        let survivor = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(survivor.get("generation").unwrap().as_f64(), Some(1.0));
        // The next complete run replaces both.
        publish(&path, "{\"generation\": 3}\n").unwrap();
        let next = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(next.get("generation").unwrap().as_f64(), Some(3.0));
        assert!(!path.with_extension("json.tmp").exists());
    }
}
