//! What every workload shares: the run configuration, repeated timed
//! set-up, untraced and traced passes, failure accounting, metric
//! recording, and the result document a child process hands its parent.

use crate::json::Json;
use crate::stats;
use crate::trace::{self, LayerRow, Span};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a run was asked to behave.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Measuring time, split by the workload among its passes.
    pub seconds: f64,
    pub traced: bool,
    /// ~1/20 of the work on shrunken inputs: exercises every code path
    /// and oracle, produces numbers nobody should compare.
    pub smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: u64,
    /// Quartile distance ÷ median of those samples, where there are any.
    pub spread: Option<f64>,
    /// For tail metrics, the percentile the tail rule settled on.
    pub pct: Option<f64>,
}

/// One workload run's bookkeeping.
pub struct Ctx {
    pub cfg: Config,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, Metric>,
    spans: Vec<Span>,
    layers: Vec<LayerRow>,
    layer_wall_ns: u64,
}

/// What a measuring pass returns: the closure's result and, for a traced
/// pass, the spans recorded under the pass's root.
pub struct Pass<R> {
    pub result: R,
    pub wall: Duration,
    pub spans: Vec<Span>,
}

impl Ctx {
    pub fn new(cfg: Config) -> Self {
        Ctx {
            cfg,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            spans: Vec::new(),
            layers: Vec::new(),
            layer_wall_ns: 0,
        }
    }

    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    pub fn traced(&self) -> bool {
        self.cfg.traced
    }

    /// `full`, or `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.cfg.smoke {
            smoke
        } else {
            full
        }
    }

    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share)
    }

    /// The shape every workload has: build the ready state (timed — the
    /// first `setup_s` sample, and the cold one: process start to first
    /// timed operation), hand it to `body` to drive and report, then
    /// close the run.
    ///
    /// Closing an untraced run reads `peak_rss_mb` — after the measured
    /// pass, with the workload's state dropped — and only then sets up
    /// `setups - 1` more times, each build dropped before the next, so
    /// `setup_s` is a median that one page-fault storm cannot decide. The
    /// repeats come last because every assembled `Framework` is kept
    /// alive by its own reference cycles: set-ups made before the
    /// measurement would sit in the workload's peak RSS. Traced and smoke
    /// runs set up once, under a `bench.setup` root span.
    pub fn run<R, E: std::fmt::Display>(
        &mut self,
        setups: usize,
        build: impl Fn() -> Result<R, E>,
        body: impl FnOnce(&mut Ctx, R),
    ) {
        let first = self.pass("bench.setup", &build);
        let mut times = vec![first.wall.as_secs_f64()];
        match first.result {
            Ok(ready) => body(self, ready),
            Err(e) => {
                self.attempt(1);
                self.fail(|| format!("set-up failed: {e}"));
                return;
            }
        }
        if !self.cfg.traced {
            self.put("peak_rss_mb", proc_status_mb("VmHWM:"), "MB");
        }
        if !self.cfg.traced && !self.cfg.smoke {
            for _ in 1..setups {
                let started = Instant::now();
                let again = build();
                times.push(started.elapsed().as_secs_f64());
                if let Err(e) = again {
                    self.fail(|| format!("repeated set-up failed: {e}"));
                }
            }
        }
        self.put_samples("setup_s", &times, "s");
    }

    /// Runs `f` as one measuring pass. In a traced run the pass is
    /// wrapped in a root span called `root` and its spans are returned
    /// (and kept for the trace file); in an untraced run spans are inert.
    /// Outside a pass tracing is always off, which is what a traced run's
    /// untraced baseline (for `bench.trace_overhead_share`) relies on.
    pub fn pass<R>(&mut self, root: &'static str, f: impl FnOnce() -> R) -> Pass<R> {
        trace::set_enabled(self.cfg.traced);
        let started = Instant::now();
        let result = {
            let _root = trace::span(root);
            f()
        };
        let wall = started.elapsed();
        trace::set_enabled(false);
        let spans = trace::drain();
        self.spans.extend(spans.iter().cloned());
        Pass {
            result,
            wall,
            spans,
        }
    }

    /// Counts `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that errored, timed out or failed its oracle.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Counts `n` failures sharing one description.
    pub fn fail_many(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n - 1;
            self.fail(why);
        }
    }

    /// `ok` or one failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.put_metric(name, value, unit, 1, None, None);
    }

    /// Records the median of `samples`.
    pub fn put_samples(&mut self, name: &str, samples: &[f64], unit: &str) {
        self.put_from(name, stats::median_of(samples), samples, unit);
    }

    /// Records the lower decile of per-unit `values` (see
    /// [`stats::low_decile`]), with their count and spread.
    pub fn put_quiet(&mut self, name: &str, values: &[f64], unit: &str) {
        self.put_from(name, stats::low_decile(values), values, unit);
    }

    /// Records `value` as derived from `samples` (its n and spread).
    pub fn put_from(&mut self, name: &str, value: f64, samples: &[f64], unit: &str) {
        self.put_metric(
            name,
            value,
            unit,
            samples.len() as u64,
            stats::spread(samples),
            None,
        );
    }

    /// Records the tail of `samples` under the tail-percentile rule.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], unit: &str) {
        let sorted = stats::sorted(samples.to_vec());
        let (pct, value) = stats::tail(&sorted);
        self.put_metric(name, value, unit, samples.len() as u64, None, Some(pct));
    }

    fn put_metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        n: u64,
        spread: Option<f64>,
        pct: Option<f64>,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                n,
                spread,
                pct,
            },
        );
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Records the layer table of the traced pass rooted at `root_name`
    /// and each layer's share of the pass as `layer.<name>_share`.
    pub fn put_layer_table(&mut self, spans: &[Span], root_name: &str) {
        let Some(root) = spans.iter().find(|s| s.name == root_name) else {
            self.fail(|| format!("traced pass recorded no '{root_name}' root span"));
            return;
        };
        let rows = trace::layer_table(spans, root.id);
        let wall = root.dur_ns();
        for row in &rows {
            self.put(
                &format!("layer.{}_share", row.layer),
                row.self_ns as f64 / wall as f64,
                "ratio",
            );
        }
        // The gate ROADMAP aim 1 sets itself: rows within 10 % of wall.
        let sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        self.check(sum.abs_diff(wall) * 10 <= wall, || {
            format!("layer rows sum to {sum} ns, wall is {wall} ns")
        });
        self.layers = rows;
        self.layer_wall_ns = wall;
    }

    /// `bench.trace_overhead_share` from the same headline number of the
    /// untraced and the traced pass, where higher is better.
    pub fn put_trace_overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        self.put(
            "bench.trace_overhead_share",
            (untraced_rate - traced_rate) / untraced_rate,
            "ratio",
        );
    }

    /// The result document, one line of JSON.
    pub fn finish(mut self) -> Json {
        if self.attempted == 0 {
            self.fail(|| "workload attempted no operation".into());
            self.attempted = 1;
        }
        let metrics = self.metrics.iter().map(|(name, m)| {
            let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(&m.unit)),
                    ("n", Json::Num(m.n as f64)),
                    ("spread", opt(m.spread)),
                    ("pct", opt(m.pct)),
                ]),
            )
        });
        let layers = self.layers.iter().map(|r| {
            Json::obj([
                ("layer", Json::str(r.layer)),
                ("self_ms", Json::Num(r.self_ns as f64 / 1e6)),
                ("spans", Json::Num(r.spans as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::str(&self.cfg.workload)),
            ("seed", Json::Num(self.cfg.seed as f64)),
            ("seconds", Json::Num(self.cfg.seconds)),
            ("traced", Json::Bool(self.cfg.traced)),
            ("smoke", Json::Bool(self.cfg.smoke)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            ("layer_wall_ms", Json::Num(self.layer_wall_ns as f64 / 1e6)),
            ("layers", Json::Arr(layers.collect())),
            (
                "threads_at_exit",
                Json::Num(threads_after_settling() as f64),
            ),
        ])
    }

    /// Summed duration (ms) of every recorded span called `name`.
    pub fn recorded_ms(&self, name: &str) -> f64 {
        trace::durations(&self.spans, name).iter().sum::<f64>() / 1e6
    }

    /// Every span recorded by this run's traced passes.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// A `kB` line of `/proc/self/status` in MB; 0 where procfs is absent.
pub fn proc_status_mb(key: &str) -> f64 {
    proc_status_field(key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_field(key: &str) -> Option<String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// Threads alive once the detached client reader/writer threads of
/// dropped transports had a moment to notice their sockets closed. More
/// than 1 means the workload leaked a thread.
fn threads_after_settling() -> u64 {
    let count = || {
        proc_status_field("Threads:")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1)
    };
    let deadline = Instant::now() + Duration::from_millis(500);
    while count() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    count()
}

/// Runs `op` repeatedly until `budget` is spent (at least `min` times),
/// returning each run's seconds.
pub fn repeat_for(budget: Duration, min: usize, mut op: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || started.elapsed() < budget {
        let t = Instant::now();
        op();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// ns per call of `op`: one sample per batch of `batch` calls.
pub fn probe_ns<R>(samples: usize, batch: usize, mut op: impl FnMut() -> R) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(op());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect()
}
