//! Tests of the benchmark itself: every workload runs at a tiny size and
//! prints every declared metric, every name is legal and matches
//! `BENCHMARK.json`, and a corrupted output is counted as a failure.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use perfbench::catalog::{self, valid_name, MetricDef};
use perfbench::{bench_config, run, Options, Scale, Workload};

/// A minimal JSON value, enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0;
        let value = parse_value(&bytes, &mut pos);
        skip_ws(&bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing characters after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn skip_ws(s: &[char], pos: &mut usize) {
    while *pos < s.len() && s[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(s: &[char], pos: &mut usize) -> Json {
    skip_ws(s, pos);
    match s[*pos] {
        '{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            loop {
                skip_ws(s, pos);
                if s[*pos] == '}' {
                    *pos += 1;
                    return Json::Obj(map);
                }
                let Json::Str(key) = parse_value(s, pos) else {
                    panic!("object key must be a string")
                };
                skip_ws(s, pos);
                assert_eq!(s[*pos], ':');
                *pos += 1;
                let value = parse_value(s, pos);
                assert!(map.insert(key.clone(), value).is_none(), "duplicate key {key}");
                skip_ws(s, pos);
                if s[*pos] == ',' {
                    *pos += 1;
                }
            }
        }
        '[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(s, pos);
                if s[*pos] == ']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(parse_value(s, pos));
                skip_ws(s, pos);
                if s[*pos] == ',' {
                    *pos += 1;
                }
            }
        }
        '"' => {
            *pos += 1;
            let mut out = String::new();
            while s[*pos] != '"' {
                if s[*pos] == '\\' {
                    *pos += 1;
                }
                out.push(s[*pos]);
                *pos += 1;
            }
            *pos += 1;
            Json::Str(out)
        }
        't' | 'f' | 'n' => {
            let word: String = s[*pos..].iter().take_while(|c| c.is_ascii_alphabetic()).collect();
            *pos += word.len();
            match word.as_str() {
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                "null" => Json::Null,
                w => panic!("bad literal {w}"),
            }
        }
        _ => {
            let num: String = s[*pos..]
                .iter()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                .collect();
            *pos += num.len();
            Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num:?}")))
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn tiny(workload: Workload, trace: bool, dir: &str) -> Options {
    let mut opts = Options::new(workload);
    opts.seed = 7;
    opts.seconds = 0.2;
    opts.trace = trace;
    opts.scale = Scale::Tiny;
    opts.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    opts
}

fn assert_declared(list: &Json, catalogue: &[MetricDef], with_bound: bool) {
    let entries = list.arr();
    assert_eq!(entries.len(), catalogue.len());
    for (entry, def) in entries.iter().zip(catalogue) {
        assert_eq!(entry.get("name").str(), def.name);
        assert_eq!(entry.get("unit").str(), def.unit, "{}", def.name);
        assert_eq!(entry.get("better").str(), def.better, "{}", def.name);
        let mut keys = vec!["better", "name", "unit"];
        if with_bound {
            keys.insert(1, "bound");
            let Json::Num(bound) = entry.get("bound") else { panic!("bound is not a number") };
            assert!(*bound > 0.0 && *bound <= 0.25, "{}: bound {bound}", def.name);
        }
        assert_eq!(entry.keys(), keys, "{}", def.name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = benchmark_json();
    assert_declared(bench.get("end_to_end"), catalog::END_TO_END, true);
    assert_declared(bench.get("per_layer"), catalog::PER_LAYER, false);
    for workload in bench.get("workloads").arr() {
        let name = workload.get("name").str();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        assert!(!workload.get("why").str().contains('\n'));
    }
    assert!(bench.get("end_to_end").arr().iter().any(|m| m.get("name").str() == "setup_s"));
}

#[test]
fn every_name_is_legal() {
    let bench = benchmark_json();
    let names = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| bench.get(list).arr().iter().map(|e| e.get("name").str().to_string()));
    for name in names {
        assert!(valid_name(&name), "illegal name {name:?}");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
}

#[test]
fn bench_config_is_the_default_with_radix_pinned() {
    let cfg = bench_config();
    assert_eq!(cfg.local_sort, hss_core::LocalSortAlgo::Radix);
    let default = hss_core::HssConfig { local_sort: cfg.local_sort, ..Default::default() };
    assert_eq!(cfg, default);
}

#[test]
fn every_workload_prints_every_metric_at_a_tiny_size() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let work =
                PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}", workload.name()));
            std::fs::create_dir_all(&work).expect("work directory");
            let output = Command::new(exe)
                .args(["--workload", workload.name(), "--seed", "5", "--seconds", "0.2"])
                .args(["--trace", trace, "--scale", "tiny"])
                .current_dir(&work)
                .output()
                .expect("run the benchmark binary");
            assert!(output.status.success(), "{} trace {trace} failed", workload.name());
            let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
            let last = Json::parse(stdout.lines().last().expect("a result line"));
            assert_eq!(last.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(last.get("correct"), &Json::Bool(true), "{stdout}");
            assert_eq!(last.get("failed"), &Json::Num(0.0));
            let catalogue = catalog::for_mode(trace == "1");
            let metrics = last.get("metrics");
            assert_eq!(metrics.keys().len(), catalogue.len());
            for def in catalogue {
                let m = metrics.get(def.name);
                assert_eq!(m.get("unit").str(), def.unit);
                let Json::Num(v) = m.get("value") else { panic!("{} is not a number", def.name) };
                if trace == "0" {
                    assert!(*v != 0.0, "{}: end-to-end metric {} is 0", workload.name(), def.name);
                }
                // Every human-readable line names the metric with its unit.
                assert!(stdout.lines().any(|l| l.starts_with(def.name) && l.ends_with(def.unit)));
            }
            assert!(stdout.contains("failed_fraction: 0.000000"));
            assert!(stdout.contains("\"git_revision\""));
            let _ = std::fs::remove_dir_all(&work);
        }
    }
}

#[test]
fn the_traced_rebuild_matches_the_sorter() {
    let outcome = run(&tiny(Workload::InMemU64, true, "traced-inmem-u64"));
    assert!(outcome.traced_matches);
    assert!(outcome.correct());
    let value = |name: &str| outcome.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert!(value("lsort.wall_s").is_some_and(|v| v > 0.0));
    assert!(value("partition.merge.fan_in").is_some_and(|v| v >= 1.0));
    assert!(value("core.splitters.probes").is_some_and(|v| v > 0.0));
}

#[test]
fn a_corrupted_output_raises_failed_fraction() {
    for workload in Workload::ALL {
        let clean = run(&tiny(workload, false, &format!("clean-{}", workload.name())));
        assert_eq!(clean.failed, 0, "{}", workload.name());
        assert_eq!(clean.failed_fraction(), 0.0);

        let mut opts = tiny(workload, false, &format!("corrupt-{}", workload.name()));
        opts.corrupt_output = true;
        let corrupt = run(&opts);
        assert!(corrupt.failed > 0, "{}: corruption went unnoticed", workload.name());
        assert!(corrupt.failed_fraction() > 0.0);
        assert!(!corrupt.correct());
        assert!(corrupt.json_line(false).starts_with("{\"correct\": false"));
    }
}
