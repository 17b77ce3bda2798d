//! The benchmark's own checks: the timing wrappers leave every simulated
//! statistic bit-identical, and the command's result line parses into
//! exactly the metrics `BENCHMARK.json` names, with their units.

use enoki_sim::cluster::{run_sequential, ClusterSpec};
use enoki_sim::Ns;
use enoki_workloads::fleet::{factory, fleet_digest, FleetSpec};
use enoki_workloads::schbench::SchbenchConfig;
use perfbench::native::native_rep;
use perfbench::probe::{timed_factory, Probe};
use perfbench::sim::{pipe_rep, record_rep, replay_rep, schbench_rep};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering::Relaxed;

#[test]
fn wrapped_pipe_is_bit_identical() {
    let plain = pipe_rep(500, None);
    let probe = Probe::shared();
    let wrapped = pipe_rep(500, Some(&probe));
    assert_eq!(plain.digest, wrapped.digest);
    assert_eq!(plain.result, wrapped.result);
    assert_eq!(plain.events, wrapped.events);
    assert!(probe.class_calls.load(Relaxed) > 1000);
    assert!(probe.policy_calls() > 1000);
    assert!(
        !wrapped.pending.is_empty(),
        "pending-event sampler never fired"
    );
}

#[test]
fn wrapped_schbench_is_bit_identical() {
    let mut cfg = SchbenchConfig::table4(2, 4);
    cfg.warmup = Ns::from_ms(5);
    cfg.duration = Ns::from_ms(20);
    let plain = schbench_rep(cfg, None);
    let probe = Probe::shared();
    let wrapped = schbench_rep(cfg, Some(&probe));
    assert_eq!(plain.digest, wrapped.digest);
    assert_eq!(plain.result, wrapped.result);
    assert!(probe.wakeups.load(Relaxed) > 0);
}

#[test]
fn wrapped_fleet_is_bit_identical() {
    let spec = FleetSpec::small(3);
    let shards = 3;
    let plain = run_sequential(ClusterSpec::new(shards), factory(spec, shards)).unwrap();
    let wrapped = run_sequential(
        ClusterSpec::new(shards),
        timed_factory(factory(spec, shards)),
    )
    .unwrap();
    let outputs: Vec<_> = wrapped.outputs.iter().map(|(o, _)| o.clone()).collect();
    assert_eq!(fleet_digest(&plain.outputs), fleet_digest(&outputs));
    assert_eq!(plain.epochs, wrapped.epochs);
    assert_eq!(plain.events, wrapped.events);
    assert_eq!(plain.messages, wrapped.messages);
    for (_, trace) in &wrapped.outputs {
        assert_eq!(trace.epochs.len() as u64, wrapped.epochs);
    }
}

#[test]
fn wrapped_replay_is_faithful() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrapped_replay.log");
    let rec = record_rep(300, None, &path);
    assert_eq!(rec.dropped, 0);
    let plain = replay_rep(&path, None);
    let probe = Probe::shared();
    let wrapped = replay_rep(&path, Some(&probe));
    assert_eq!(plain.failures, 0);
    assert_eq!(wrapped.failures, 0);
    assert_eq!(plain.calls, wrapped.calls);
    assert!(probe.policy_calls() > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrapped_native_run_completes() {
    let probe = Probe::shared();
    let r = native_rep(200, Some(&probe));
    assert_eq!(r.completed, 2);
    assert_eq!(r.bad_picks, 0);
    assert_eq!(r.live_tokens, 0);
    assert!(probe.wake_to_pick.count() > 0);
}

/// A minimal JSON value and recursive-descent parser for the checks below.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                while self.peek() != b'}' {
                    if !kv.is_empty() {
                        self.eat(b',');
                    }
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                }
                self.eat(b'}');
                Json::Obj(kv)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                while self.peek() != b']' {
                    if !v.is_empty() {
                        self.eat(b',');
                    }
                    v.push(self.value());
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
}

fn benchmark_json() -> Json {
    Json::parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap())
}

/// Runs the benchmark command from the repository root; returns the
/// parsed result line.
fn run_command(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    Json::parse(stdout.lines().last().expect("a result line"))
}

/// Checks a result line against one metric catalogue of BENCHMARK.json.
fn assert_matches_catalogue(result: &Json, catalogue: &Json) {
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted")
    };
    assert!(*attempted >= 1.0);
    let metrics = result.get("metrics");
    let declared: Vec<&str> = catalogue
        .items()
        .iter()
        .map(|m| m.get("name").str())
        .collect();
    assert_eq!(metrics.keys(), declared);
    for m in catalogue.items() {
        let got = metrics.get(m.get("name").str());
        assert_eq!(got.keys(), ["value", "unit"]);
        assert_eq!(got.get("unit").str(), m.get("unit").str());
        assert!(matches!(got.get("value"), Json::Num(_)));
    }
}

#[test]
fn command_prints_every_declared_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let known: Vec<&str> = perfbench::WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(workloads, known);
    let untraced = run_command("pipe", 0);
    assert_matches_catalogue(&untraced, bench.get("end_to_end"));
    let Json::Num(rate) = untraced.get("metrics").get("ops_per_s").get("value") else {
        panic!()
    };
    assert!(*rate > 0.0);
    assert_matches_catalogue(&run_command("pipe", 1), bench.get("per_layer"));
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
