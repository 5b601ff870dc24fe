//! Turning an [`Outcome`] into named metrics with units.
//!
//! End-to-end metrics are what a user of the co-simulator sees: times
//! of the workload and its windows (in scaled seconds, see
//! [`crate::gauge`]), memory, and the modeled results. Per-layer metrics break the same run down: work counts per
//! window from the ledger, and each layer's share of a window's wall
//! time from the traced pass (a share, not seconds, so a layer that
//! does no work on a workload reads 0 % rather than a constant time).

use crate::bench::Outcome;
use crate::gauge::Timed;
use crate::ledger::Work;
use crate::run::Profile;
use crate::stats::{summarize, Summary};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Reported value (the median, for timings).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Median, quartiles and sample count, for sampled timings.
    pub summary: Option<Summary>,
    /// The samples (scaled seconds), for sampled timings.
    pub samples: Vec<f64>,
    /// The same samples in wall seconds.
    pub wall: Vec<f64>,
}

fn fixed(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        summary: None,
        samples: Vec::new(),
        wall: Vec::new(),
    }
}

/// A timing: the median of the scaled samples.
fn sampled(name: &str, samples: &[Timed], unit: &'static str) -> Metric {
    let scaled: Vec<f64> = samples.iter().map(|t| t.scaled).collect();
    let summary = summarize(&scaled);
    Metric {
        name: name.to_string(),
        value: summary.map_or(0.0, |s| s.median),
        unit,
        summary,
        samples: scaled,
        wall: samples.iter().map(|t| t.wall).collect(),
    }
}

/// Median scaled seconds of one sample series (0 when empty).
fn median(samples: &[Timed]) -> f64 {
    let scaled: Vec<f64> = samples.iter().map(|t| t.scaled).collect();
    summarize(&scaled).map_or(0.0, |s| s.median)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let s = &o.samples;
    let out = &o.ledger.outcome;
    vec![
        sampled("run_s", &s.run_s, "s"),
        sampled("setup_s", &s.setup_s, "s"),
        sampled("bringup_s", &s.bringup_s, "s"),
        sampled("window_s", &s.window_s, "s"),
        fixed("peak_rss_mib", o.peak_rss_mib, "MiB"),
        fixed("qoe_mean", out.qoe_mean, "score"),
        fixed("unroutable_flow_s", out.unroutable_flow_secs, "flow.s"),
        fixed("ctrl_mb", out.ctrl_bytes as f64 / 1e6, "MB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A phase's self time as a percentage of the stage's wall time.
fn pct(p: &Profile, phase: &str) -> f64 {
    ratio(100.0 * p.self_s(phase), p.wall_s)
}

/// Per-window metrics shared by bring-up and the scenario window.
fn window_metrics(win: &str, w: &Work, p: &Profile, median_s: f64) -> Vec<Metric> {
    let c = |n: &str, v: u64| fixed(format!("{win}.{n}"), v as f64, "count");
    let share = |n: &str, phase: &str| fixed(format!("{win}.{n}"), pct(p, phase), "%");
    vec![
        c("kernel.events", w.events),
        share("kernel.dispatch_pct", "kernel.dispatch"),
        fixed(
            format!("{win}.kernel.ns_per_event"),
            ratio(median_s * 1e9, w.events as f64),
            "ns",
        ),
        c("igp.ctrl_pkts", w.ctrl_pkts),
        c("igp.ctrl_dropped", w.ctrl_dropped),
        c("igp.spf_full", w.spf_full),
        c("igp.spf_partial", w.spf_partial),
        share("spf.full_pct", "spf.full"),
        share("spf.partial_pct", "spf.partial"),
        c("spf.prefix_routes_n", p.spans("spf.prefix_routes")),
        share("spf.prefix_routes_pct", "spf.prefix_routes"),
        c("netsim.reallocs", w.reallocs),
        c("netsim.paths_resolved", w.paths_resolved),
        c("netsim.paths_skipped", w.paths_skipped),
        fixed(
            format!("{win}.netsim.resolve_ratio"),
            ratio(
                w.paths_resolved as f64,
                (w.paths_resolved + w.paths_skipped) as f64,
            ),
            "ratio",
        ),
        c("netsim.alloc_fills", w.alloc_fills),
        c("netsim.alloc_skips", w.alloc_skips),
        c("netsim.unroutable", w.unroutable),
        share("fluid.settle_pct", "fluid.settle"),
        share("fib.install_pct", "fib.install"),
        c("telemetry.snmp_ops", w.snmp_ops),
        share("ctrl.poll_pct", "ctrl.poll"),
        c("ctrl.evaluations", w.evaluations),
        c("ctrl.reactions", w.reactions),
        c("ctrl.injections", w.injections),
        c("ctrl.retractions", w.retractions),
        c("ctrl.failures", w.failures),
        share("ctrl.optimize_pct", "ctrl.optimize"),
        c("solver.probes", p.spans("solver.probe")),
        share("solver.probe_pct", "solver.probe"),
        fixed(format!("{win}.untraced_s"), p.untraced_s(), "s"),
    ]
}

/// Tracing overhead: the traced pass against the median untraced pass,
/// percent; `None` without a traced pass.
pub fn overhead_pct(o: &Outcome) -> Option<f64> {
    let t = o.traced.as_ref()?;
    Some(100.0 * (ratio(t.run_s.scaled, median(&o.samples.run_s)) - 1.0))
}

/// The per-layer metrics of a traced invocation, in `BENCHMARK.json`
/// order; `None` without a traced pass.
pub fn per_layer(o: &Outcome) -> Option<Vec<Metric>> {
    let t = o.traced.as_ref()?;
    let l = &o.ledger;
    let mut window = t.stages.window.clone();
    window.add(&t.stages.report);
    let bringup_s = median(&o.samples.bringup_s);
    let mut m = vec![
        fixed("host.calib_s", o.calib_s, "s"),
        fixed("scenario.build_s", t.stages.setup.wall_s, "s"),
        fixed("setup.untraced_s", t.stages.setup.untraced_s(), "s"),
        fixed("sweep.cells", o.cells as f64, "count"),
        fixed("sweep.failed", o.failed as f64, "count"),
        fixed("igp.lsdb_lsas", l.lsdb_lsas as f64, "count"),
        fixed(
            "igp.us_per_pkt",
            ratio(bringup_s * 1e6, l.bringup.ctrl_pkts as f64),
            "us",
        ),
        fixed("video.sessions", l.outcome.sessions as f64, "count"),
        fixed("video.stalls", l.outcome.stalls as f64, "count"),
        fixed("video.stall_s", l.outcome.stall_secs, "session.s"),
        fixed("trace.overhead_pct", overhead_pct(o).unwrap_or(0.0), "%"),
    ];
    m.extend(window_metrics(
        "bringup",
        &l.bringup,
        &t.stages.bringup,
        bringup_s,
    ));
    m.extend(window_metrics(
        "window",
        &l.window,
        &window,
        median(&o.samples.window_s),
    ));
    Some(m)
}
