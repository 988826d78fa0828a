//! CI check over the *committed* benchmark artifacts: every `BENCH_*.json`
//! at the repo root must parse as JSON and declare its schema.
//!
//! The bench binaries publish results with a write-then-rename so a killed
//! run can't leave a truncated file; this test is the other half of that
//! contract — if a hand edit or a bad merge corrupts an artifact, CI fails
//! here rather than when some downstream trend script chokes. The parser
//! is a deliberately tiny recursive-descent JSON reader (the workspace
//! vendors no serde).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// A minimal JSON value — just enough to validate structure and pull out
/// the schema tag.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

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
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
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

fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser::new(src);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn committed_bench_artifacts_parse_and_declare_schema() {
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let value = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Json::Obj(map) = value else {
            panic!("{name}: top level must be a JSON object");
        };
        match map.get("schema") {
            Some(Json::Str(s)) => assert!(
                s.starts_with("cca-bench/"),
                "{name}: schema '{s}' must be 'cca-bench/<version>'"
            ),
            other => panic!("{name}: missing string 'schema' field (got {other:?})"),
        }
        if name == "BENCH_rpc.json" {
            // E13 merges the mux throughput quantities into E12's
            // artifact; a bench.sh run that skipped the merge (or a bad
            // hand edit) must fail here, not in a trend script.
            for key in [
                "throughput_calls_per_sec",
                "p99_ns",
                "mux_roundtrip_median_ns",
                "mux_over_pooled_ratio",
            ] {
                assert!(
                    matches!(map.get(key), Some(Json::Num(_))),
                    "{name}: missing numeric '{key}' field (E12 mux row / E13 mux merge)"
                );
            }
        }
        if name == "BENCH_data.json" {
            // E15's bulk-data-plane artifact: the tentpole ratio and the
            // memory bound it gates on must both be present as numbers.
            for key in [
                "chunk_bytes",
                "bulk_gbps",
                "generic_gbps",
                "inproc_gbps",
                "raw_wire_gbps",
                "wire_budget_gbps",
                "bulk_over_generic_ratio",
                "peak_slab_bytes",
            ] {
                assert!(
                    matches!(map.get(key), Some(Json::Num(_))),
                    "{name}: missing numeric '{key}' field (E15 bulk data plane)"
                );
            }
        }
        if name == "BENCH_fleet.json" {
            // E16's worker-fleet artifact: the wire-collective overhead
            // ratio and the restart-to-rejoin latency are PR 9's
            // acceptance quantities.
            for key in [
                "ranks",
                "thread_allreduce_ns",
                "wire_allreduce_ns",
                "wire_over_thread_ratio",
                "restart_to_rejoin_ms",
            ] {
                assert!(
                    matches!(map.get(key), Some(Json::Num(_))),
                    "{name}: missing numeric '{key}' field (E16 worker fleet)"
                );
            }
        }
        if name == "BENCH_repo.json" {
            // E17's repository-scale artifact: PR 10's acceptance
            // quantities — exact lookup and fuzzy latency at 1M types,
            // the flat-scan comparison, and the concurrency scaling.
            for key in [
                "types",
                "shards",
                "exact_lookup_p50_ns",
                "fuzzy_p50_us",
                "flat_scan_p50_us",
                "scan_speedup",
                "single_thread_qps",
                "four_thread_qps",
                "throughput_scaling",
            ] {
                assert!(
                    matches!(map.get(key), Some(Json::Num(_))),
                    "{name}: missing numeric '{key}' field (E17 repository scale)"
                );
            }
        }
        if name == "BENCH_obs.json" {
            // E14 merges the wire-tracing quantities into E10's artifact
            // the same way; both halves must be present.
            for key in [
                "span_on_ns",
                "wire_pr6_encode_ns",
                "wire_off_encode_ns",
                "wire_off_over_pr6_ratio",
                "remote_call_off_ns",
                "remote_call_on_ns",
                "remote_on_over_off_ratio",
            ] {
                assert!(
                    matches!(map.get(key), Some(Json::Num(_))),
                    "{name}: missing numeric '{key}' field (E14 wire-trace merge)"
                );
            }
        }
        checked.push(name);
    }
    assert!(
        !checked.is_empty(),
        "no BENCH_*.json artifacts found at the repo root — the E9/E10 \
         benches are expected to commit theirs"
    );
}

#[test]
fn json_reader_handles_the_shapes_benches_emit() {
    let v = parse(r#"{"schema":"cca-bench/1","xs":[1,2.5,-3e2],"ok":true,"s":"a\"bA"}"#).unwrap();
    let Json::Obj(map) = v else { panic!() };
    assert_eq!(map["schema"], Json::Str("cca-bench/1".into()));
    assert_eq!(
        map["xs"],
        Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
    );
    assert_eq!(map["ok"], Json::Bool(true));
    assert_eq!(map["s"], Json::Str("a\"bA".into()));
    assert!(parse("{\"truncated\":").is_err());
    assert!(parse("{} trailing").is_err());
    assert!(parse("").is_err());
}
