//! Printing an invocation: a readable table, one JSON record with the
//! full detail, and the one-line JSON result (always last).

use crate::bench::Outcome;
use crate::host::Host;
use crate::json::{number, object, string};
use crate::metrics::Metric;
use crate::run::Profile;
use std::fmt::Write as _;

/// The metrics the result line carries: end-to-end without a trace,
/// per-layer with one.
pub fn result_metrics(o: &Outcome) -> Vec<Metric> {
    crate::metrics::per_layer(o).unwrap_or_else(|| crate::metrics::end_to_end(o))
}

/// Whether every check passed.
pub fn correct(o: &Outcome) -> bool {
    o.failed == 0 && !o.samples.run_s.is_empty()
}

/// The readable report: metric table, traced stage table, failures.
pub fn table(o: &Outcome, host: &Host) -> String {
    let mut s = String::new();
    let c = &o.config;
    let _ = writeln!(
        s,
        "perfbench {} seed={} trace={} cells={} jobs={}",
        c.workload.name(),
        c.seed,
        u8::from(c.trace),
        o.cells,
        o.jobs
    );
    let _ = writeln!(
        s,
        "host: cpu={:?} nproc={} rustc={:?} commit={} calib_s={}",
        host.cpu, host.nproc, host.rustc, host.commit, o.calib_s
    );
    let _ = writeln!(
        s,
        "gauge: median_s={:.6} readings={} reference_s={} (timings in scaled seconds; wall medians beside)",
        gauge_median(o),
        o.samples.gauges.len(),
        crate::gauge::GAUGE_REF_S
    );
    let _ = writeln!(
        s,
        "{:<18} {:>14} {:>14} {:>14} {:>4} {:>14}  unit",
        "metric", "median", "q1", "q3", "n", "wall median"
    );
    for m in crate::metrics::end_to_end(o) {
        let (q1, q3, n) = m
            .summary
            .map_or((m.value, m.value, 1), |x| (x.q1, x.q3, x.n));
        let wall =
            crate::stats::summarize(&m.wall).map_or(String::new(), |w| format!("{:.6}", w.median));
        let _ = writeln!(
            s,
            "{:<18} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>14}  {}",
            m.name, m.value, q1, q3, n, wall, m.unit
        );
    }
    let _ = writeln!(
        s,
        "reference (unsplit) pass: wall {:.6} s; peak RSS at the end {:.3} MiB",
        o.samples.reference_wall_s, o.peak_rss_end_mib
    );
    if let Some(t) = &o.traced {
        let _ = writeln!(
            s,
            "traced pass: run_s={:.6} (wall {:.6}) overhead={:.2}%{}",
            t.run_s.scaled,
            t.run_s.wall,
            crate::metrics::overhead_pct(o).unwrap_or(0.0),
            t.sweep_exec_s
                .map(|x| format!(" sweep.exec_s={x:.6}"))
                .unwrap_or_default()
        );
        let _ = writeln!(
            s,
            "{:<8} {:<18} {:>10} {:>12} {:>7}",
            "stage", "phase", "spans", "self_s", "pct"
        );
        for (name, p) in stages(o) {
            for (phase, (spans, self_s)) in &p.phases {
                let _ = writeln!(
                    s,
                    "{:<8} {:<18} {:>10} {:>12.6} {:>6.2}%",
                    name,
                    phase,
                    spans,
                    self_s,
                    pct(*self_s, p.wall_s)
                );
            }
            let _ = writeln!(
                s,
                "{:<8} {:<18} {:>10} {:>12.6} {:>6.2}%  (wall {:.6} s)",
                name,
                "untraced",
                "-",
                p.untraced_s(),
                pct(p.untraced_s(), p.wall_s),
                p.wall_s
            );
        }
        let optimize = t.stages.window.phases.get("ctrl.optimize");
        if let Some((n, secs)) = optimize.filter(|(n, _)| *n > 0) {
            let _ = writeln!(s, "ctrl.ms_per_optimize={:.4}", secs * 1e3 / *n as f64);
        }
    }
    for e in &o.errors {
        let _ = writeln!(s, "FAILED {e}");
    }
    s
}

/// Median gauge reading of the timed passes, seconds (0 without any).
fn gauge_median(o: &Outcome) -> f64 {
    crate::stats::summarize(&o.samples.gauges).map_or(0.0, |g| g.median)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn stages(o: &Outcome) -> Vec<(&'static str, &Profile)> {
    o.traced.as_ref().map_or_else(Vec::new, |t| {
        vec![
            ("setup", &t.stages.setup),
            ("bringup", &t.stages.bringup),
            ("window", &t.stages.window),
            ("report", &t.stages.report),
        ]
    })
}

/// The full record: host fingerprint, calibration, every end-to-end
/// summary, digests, the ledger and the traced stages, as one JSON
/// line.
pub fn record(o: &Outcome, host: &Host) -> String {
    let e2e = crate::metrics::end_to_end(o).into_iter().map(|m| {
        let (q1, q3, n) = m
            .summary
            .map_or((m.value, m.value, 1), |x| (x.q1, x.q3, x.n));
        (
            m.name,
            object([
                ("median", number(m.value)),
                ("q1", number(q1)),
                ("q3", number(q3)),
                ("n", n.to_string()),
                ("unit", string(m.unit)),
                ("samples", list(&m.samples)),
                ("wall_samples", list(&m.wall)),
            ]),
        )
    });
    let traced = stages(o).into_iter().map(|(name, p)| {
        let phases = p.phases.iter().map(|(phase, (spans, self_s))| {
            (
                *phase,
                object([("spans", spans.to_string()), ("self_s", number(*self_s))]),
            )
        });
        (
            name,
            object([
                ("wall_s", number(p.wall_s)),
                ("untraced_s", number(p.untraced_s())),
                ("phases", object(phases)),
            ]),
        )
    });
    let c = &o.config;
    object([
        ("record", string("perfbench")),
        ("workload", string(c.workload.name())),
        ("seed", c.seed.to_string()),
        ("trace", c.trace.to_string()),
        (
            "host",
            object([
                ("cpu", string(&host.cpu)),
                ("nproc", host.nproc.to_string()),
                ("rustc", string(&host.rustc)),
                ("commit", string(&host.commit)),
                ("calib_s", number(o.calib_s)),
                ("gauge_median_s", number(gauge_median(o))),
                ("gauge_readings", o.samples.gauges.len().to_string()),
                ("gauge_ref_s", number(crate::gauge::GAUGE_REF_S)),
            ]),
        ),
        ("reference_wall_s", number(o.samples.reference_wall_s)),
        ("peak_rss_end_mib", number(o.peak_rss_end_mib)),
        ("cells", o.cells.to_string()),
        ("jobs", o.jobs.to_string()),
        (
            "report_digest",
            string(&format!("{:016x}", o.report_digest)),
        ),
        (
            "ledger_digest",
            string(&format!("{:016x}", o.ledger_digest)),
        ),
        ("ledger", string(&o.ledger.render())),
        ("end_to_end", object(e2e)),
        ("traced", object(traced)),
        (
            "sweep_exec_s",
            o.traced
                .as_ref()
                .and_then(|t| t.sweep_exec_s)
                .map_or("null".to_string(), number),
        ),
        (
            "errors",
            format!(
                "[{}]",
                o.errors
                    .iter()
                    .map(|e| string(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ])
}

fn list(values: &[f64]) -> String {
    format!(
        "[{}]",
        values
            .iter()
            .map(|v| number(*v))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result(o: &Outcome) -> String {
    let metrics = result_metrics(o).into_iter().map(|m| {
        (
            m.name,
            object([("value", number(m.value)), ("unit", string(m.unit))]),
        )
    });
    object([
        ("correct", correct(o).to_string()),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("metrics", object(metrics)),
    ])
}
