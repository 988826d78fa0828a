//! `ccabench` — one end-to-end benchmark for cca-rs.
//!
//! ```text
//! ccabench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ccabench aa  [--seed N] [--seconds S]
//! ```
//!
//! `run` executes each workload in a child process of its own (so peak
//! RSS, threads and ports are per workload), prints every metric as
//! `workload metric value unit n spread`, writes
//! `benchmark/out/<workload>.json`, and ends with one JSON line holding
//! the metrics `BENCHMARK.json` declares. With `--trace 0` that is the
//! end-to-end set from an untraced run, with `--trace 1` the per-layer
//! set from a traced run; without `--trace` both runs are made.
//! See `benchmark/README.md`.

mod declared;
mod gen;
mod harness;
mod host;
mod json;
mod stats;
mod trace;
mod workloads;

use harness::{Config, Ctx};
use json::Json;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and the run fails:
/// the contract gives one invocation 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
/// Measuring time of a `--smoke` run: the six workloads, untraced and
/// traced, end within ten seconds.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None` = both runs.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

type ArgIter<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

/// `--trace` and `--smoke` may stand alone or take `0|1`.
fn switch(it: &mut ArgIter) -> bool {
    match it.peek().map(|s| s.as_str()) {
        Some("0") => {
            it.next();
            false
        }
        Some("1") => {
            it.next();
            true
        }
        _ => true,
    }
}

fn value(it: &mut ArgIter, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: declared::DEFAULT_SEED,
        seconds: declared::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if workloads::find(&name).is_none() {
                    let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload '{name}'; one of {known:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
                seconds_given = true;
            }
            "--trace" => parsed.trace = Some(switch(&mut it)),
            "--smoke" => parsed.smoke = switch(&mut it),
            "--out" => parsed.out = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.smoke && !seconds_given {
        parsed.seconds = SMOKE_SECONDS;
    }
    Ok(parsed)
}

/// `benchmark/out` of the checkout the command runs from; beside the
/// manifest the binary was built from when run from elsewhere.
fn default_out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Temp file + rename: a killed run never leaves half a document.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

// ---- child: one workload, one run -------------------------------------

fn child(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("child needs --workload")?;
    let workload = workloads::find(name).expect("parse_args checked the name");
    let traced = args.trace.ok_or("child needs --trace 0|1")?;
    // The program's own instrumentation stays off in both kinds of run:
    // the per-layer numbers come from this benchmark's spans.
    cca::obs::set_tracing(false);
    cca::obs::set_counters(false);
    let mut ctx = Ctx::new(Config {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced,
        smoke: args.smoke,
    });
    (workload.run)(&mut ctx);
    if traced {
        let out = args.out.as_deref().ok_or("child needs --out")?;
        let doc = trace::chrome_trace(&ctx.take_spans());
        write_atomic(&out.join(format!("trace-{name}.json")), &doc.render())?;
    }
    println!("{}", ctx.finish().render());
    Ok(())
}

// ---- parent -----------------------------------------------------------

/// Runs one child to completion (or kills it at the timeout) and parses
/// the result document on its last stdout line.
fn run_child(args: &Args, name: &str, traced: bool, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--smoke", if args.smoke { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child for {name}: {e}"))?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for {name}: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{name} did not finish in {CHILD_TIMEOUT:?}; killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("read {name}'s output: {e}"))?;
    if !status.success() {
        return Err(format!("{name} child exited with {status}"));
    }
    let last = text
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{name}'s result document: {e}"))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_result(doc: &Json) {
    let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
    let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let metrics = doc.get("metrics").map(Json::entries).unwrap_or(&[]);
    for (name, m) in metrics {
        let text = |key: &str| match m.get(key) {
            Some(Json::Num(v)) => format!("{v:.4}"),
            _ => "-".to_string(),
        };
        let pct = match m.get("pct") {
            Some(Json::Num(p)) => format!(" p{p}"),
            _ => String::new(),
        };
        println!(
            "{workload} {name} {} {} {} {}{pct}{}",
            text("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            num(m, "n"),
            text("spread"),
            if smoke { " smoke" } else { "" },
        );
    }
    if let Some(Json::Arr(failures)) = doc.get("failures") {
        for why in failures {
            println!("{workload} FAILED {}", why.as_str().unwrap_or("?"));
        }
    }
    let Some(Json::Arr(layers)) = doc.get("layers") else {
        return;
    };
    if layers.is_empty() {
        return;
    }
    let wall = num(doc, "layer_wall_ms");
    println!("{workload} layer table (traced pass wall {wall:.3} ms)");
    println!(
        "  {:<12} {:>12} {:>8} {:>8}",
        "layer", "self_ms", "share", "spans"
    );
    let mut sum = 0.0;
    for row in layers {
        let self_ms = num(row, "self_ms");
        sum += self_ms;
        println!(
            "  {:<12} {:>12.3} {:>8.4} {:>8}",
            row.get("layer").and_then(Json::as_str).unwrap_or("?"),
            self_ms,
            self_ms / wall,
            num(row, "spans"),
        );
    }
    println!("  {:<12} {:>12.3} {:>8.4}", "sum", sum, sum / wall);
}

/// One workload's runs (untraced, traced, or both), printed and written
/// to `out/<workload>.json`. Returns the documents in run order.
fn run_workload(args: &Args, name: &str, host: &Json, out: &Path) -> Result<Vec<Json>, String> {
    let kinds: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut docs = Vec::new();
    for &traced in kinds {
        let doc = run_child(args, name, traced, out)?;
        print_result(&doc);
        docs.push(doc);
    }
    let workload = workloads::find(name).expect("selected() yields known names");
    let artifact = Json::obj([
        ("schema", Json::str("ccabench/1")),
        ("host", host.clone()),
        ("workload", Json::str(name)),
        ("why", Json::str(workload.why)),
        ("ops_per_s_counts", Json::str(workload.ops)),
        ("op_p50_us_times", Json::str(workload.p50_of)),
        ("runs", Json::Arr(docs.clone())),
    ]);
    write_atomic(&out.join(format!("{name}.json")), &artifact.render())?;
    Ok(docs)
}

/// The contract's closing line: exactly the declared metrics of the mode.
/// A per-layer metric this workload's layers never touch reads 0. When
/// more than one workload ran, names read `workload/metric`.
fn contract_line(names: &[&str], docs: &[Json], trace: Option<bool>) -> (Json, bool) {
    let attempted: f64 = docs.iter().map(|d| num(d, "attempted")).sum();
    let failed: f64 = docs.iter().map(|d| num(d, "failed")).sum();
    let mut metrics = Vec::new();
    let mut complete = true;
    for name in names {
        let of_workload: Vec<&Json> = docs
            .iter()
            .filter(|d| d.get("workload").and_then(Json::as_str) == Some(name))
            .collect();
        let mut declare = |metric: &str, unit: &str, required: bool| {
            let value = of_workload.iter().find_map(|d| metric_value(d, metric));
            complete &= value.is_some() || !required;
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}/{metric}")
            };
            let entry = [
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::str(unit)),
            ];
            metrics.push((key, Json::obj(entry)));
        };
        if trace != Some(true) {
            for m in &declared::END_TO_END {
                declare(m.name, m.unit, true);
            }
        }
        if trace != Some(false) {
            for m in &declared::PER_LAYER {
                declare(m.name, m.unit, false);
            }
        }
    }
    let correct = failed == 0.0 && complete;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1.0))),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    (line, correct)
}

fn selected(args: &Args) -> Vec<&'static str> {
    workloads::ALL
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

fn prepare_out(args: &Args) -> Result<PathBuf, String> {
    let out = args.out.clone().unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    Ok(out)
}

fn run(args: &Args) -> Result<bool, String> {
    let out = prepare_out(args)?;
    let host = host::block(args.seed);
    let names = selected(args);
    let mut all = Vec::new();
    for name in &names {
        all.extend(run_workload(args, name, &host, &out)?);
    }
    let (line, correct) = contract_line(&names, &all, args.trace);
    println!("{}", line.render());
    Ok(correct)
}

/// A/A: the same commit measured twice must agree with itself — every
/// end-to-end metric × workload within its bound, every exact count equal.
fn aa(args: &Args) -> Result<bool, String> {
    if args.smoke {
        return Err("aa compares numbers; smoke numbers are never compared".into());
    }
    let out = prepare_out(args)?;
    let host = host::block(args.seed);
    let mut agree = true;
    let set = |trace: bool| -> Result<Vec<Json>, String> {
        let args = Args {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: Some(trace),
            smoke: false,
            out: args.out.clone(),
        };
        let mut docs = Vec::new();
        for name in selected(&args) {
            docs.extend(run_workload(&args, name, &host, &out)?);
        }
        Ok(docs)
    };
    let (first, second) = (set(false)?, set(false)?);
    println!("aa workload metric first second rel_diff bound verdict");
    for (a, b) in first.iter().zip(&second) {
        let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        agree &= num(a, "failed") == 0.0 && num(b, "failed") == 0.0;
        for m in &declared::END_TO_END {
            let (Some(x), Some(y)) = (metric_value(a, m.name), metric_value(b, m.name)) else {
                println!("aa {workload} {} missing", m.name);
                agree = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let ok = diff <= m.bound;
            agree &= ok;
            println!(
                "aa {workload} {} {x:.4} {y:.4} {diff:.4} {} {}",
                m.name,
                m.bound,
                if ok { "ok" } else { "DIFFERS" }
            );
        }
    }
    let (first, second) = (set(true)?, set(true)?);
    println!("aa workload exact_count first second verdict");
    for (a, b) in first.iter().zip(&second) {
        let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        agree &= num(a, "failed") == 0.0 && num(b, "failed") == 0.0;
        for name in declared::EXACT_COUNTS {
            let (x, y) = (metric_value(a, name), metric_value(b, name));
            if x.is_none() && y.is_none() {
                continue;
            }
            let ok = x == y;
            agree &= ok;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
            println!(
                "aa {workload} {name} {} {} {}",
                show(x),
                show(y),
                if ok { "ok" } else { "DIFFERS" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("usage: ccabench run|aa [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match mode.as_str() {
        "run" => run(&args),
        "aa" => aa(&args),
        "child" => child(&args).map(|()| true),
        "manifest" => {
            print!("{}", declared::manifest().render_pretty());
            Ok(true)
        }
        other => Err(format!("unknown mode '{other}'")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ccabench: {why}");
            ExitCode::from(2)
        }
    }
}
