//! Self-tests of the benchmark: the bring-up/window split perturbs no
//! output, the summary statistics match Python's, and every metric the
//! benchmark prints is declared in `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use fib_scenario::prelude::{load_scenario, RunOptions};
use perfbench::bench::{execute_cells, Config};
use perfbench::metrics::{end_to_end, per_layer, Metric};
use perfbench::run::{run_plain, run_split, Cell, Steps};
use perfbench::stats::summarize;
use perfbench::workload::Workload;

/// Cut bring-up in 10 µs quanta and the window on the 100 ms tick,
/// starting at the given first steps (`None`: one segment).
fn cell(scenario: &str, horizon: f64, first: Option<(u64, u64)>) -> Cell {
    let spec = load_scenario(scenario).expect("shipped scenario loads");
    let opts = RunOptions {
        horizon_secs: Some(horizon),
        ..RunOptions::default()
    };
    let mut c = Cell::new(scenario, spec, opts);
    if let Some((bringup, window)) = first {
        c.bringup_steps = Some(Steps {
            quantum_ns: 10_000,
            first: bringup,
            max: 100,
        });
        c.window_steps = Some(Steps {
            quantum_ns: 100_000_000,
            first: window,
            max: 10,
        });
    }
    c
}

/// Split runs (at the first stimulus, through the benchmark's stepped
/// cuts, traced or not) reproduce the unsplit `fib_scenario::run` byte
/// for byte, and traced and untraced runs do identical work.
#[test]
fn split_matches_the_unsplit_run() {
    let cases = [
        cell("metro_core", 7.0, Some((37, 3))),
        cell("link_failure_under_load", 30.0, Some((1, 10))),
        cell("flash_crowd_random", 20.0, None),
        cell("diurnal_mix", 15.0, Some((100, 1))),
    ];
    for c in &cases {
        let plain = run_plain(c).expect("unsplit run");
        let split = run_split(c, false).expect("split run");
        let traced = run_split(c, true).expect("traced split run");
        assert_eq!(split.digest, plain, "{}: split changed the report", c.label);
        assert_eq!(
            traced.digest, plain,
            "{}: tracing changed the report",
            c.label
        );
        assert_eq!(
            split.ledger, traced.ledger,
            "{}: tracing changed the work ledger",
            c.label
        );
        assert!(
            split.gauges.len() >= 2 && split.times.window.scaled > 0.0,
            "{}: the window was timed and rescaled between gauge readings",
            c.label
        );
        assert!(
            split.ledger.window.events > 0,
            "{}: window did work",
            c.label
        );
        if c.stimulus > 0.0 {
            assert!(
                split.ledger.bringup.events > 0,
                "{}: bring-up did work",
                c.label
            );
            assert!(
                traced.stages.bringup.phases.contains_key("kernel.dispatch"),
                "{}: bring-up traced",
                c.label
            );
        }
    }
    assert_eq!(cases[0].stimulus, 5.0, "metro_core's first flash crowd");
    assert_eq!(
        cases[3].stimulus, 0.0,
        "a diurnal mix has no scripted stimulus"
    );
}

/// Medians and quartiles agree with `statistics.quantiles(v, n=4)`.
#[test]
fn summary_matches_python_quantiles() {
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0], [1.25, 3.0, 4.75]),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
            [27.5, 55.0, 82.5],
        ),
        (&[2.5, 0.5, 1.5, 4.0, 3.0, 9.0, 7.25], [1.5, 3.0, 7.25]),
    ];
    for (values, [q1, median, q3]) in cases {
        let s = summarize(values).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (q1, median, q3, values.len()));
    }
    let one = summarize(&[4.0]).expect("non-empty");
    assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
    assert!(summarize(&[]).is_none());
}

/// `(name, <key>)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str, key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, key)))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn check(emitted: &[Metric], section: &str) {
    let got: Vec<(String, String)> = emitted
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    for (name, _) in &got {
        assert!(valid_name(name), "bad metric name {name}");
    }
    assert_eq!(
        got,
        declared(section, "unit"),
        "{section} differs from BENCHMARK.json"
    );
}

/// Every metric an invocation prints is well named and declared, with
/// the same unit and in the same order, in `BENCHMARK.json`.
#[test]
fn emitted_metrics_are_declared() {
    let cells = [cell("link_failure_under_load", 25.0, None)];
    let config = Config {
        workload: Workload::MetroCore,
        seed: 1,
        seconds: 0.0,
        trace: true,
        min_passes: 2,
        setup_passes: 2,
        calib_reps: 1,
    };
    let outcome = execute_cells(config, &cells, &[0]).expect("invocation runs");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
    assert_eq!(outcome.attempted, 4, "reference, two timed passes, traced");
    check(&end_to_end(&outcome), "end_to_end");
    check(&per_layer(&outcome).expect("traced"), "per_layer");
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workloads: Vec<String> = declared("workloads", "why")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, names);
}
