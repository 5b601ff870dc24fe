//! Driving one scenario through the public entry points, window by
//! window, with an optional per-window trace.
//!
//! A run is cut into four stages, each timed around one public call:
//!
//! * `setup` — `fib_scenario::build`;
//! * `bringup` — `ScenarioRun::run_until_secs` to the first scripted
//!   stimulus (the IGP cold start);
//! * `window` — `run_until_secs` on to the horizon;
//! * `report` — `ScenarioRun::finish`.
//!
//! Bring-up and window advance through the cell's cut points, one
//! `run_until_secs` call per segment, so that every timed segment is
//! short next to the host's speed episodes and a [`Meter`] can rescale
//! it to the reference speed.
//!
//! Traced runs install a fresh `fib_trace::AggSink` for every stage,
//! so each stage's phase self times are attributed separately.

use crate::digest::Fnv;
use crate::gauge::{Meter, Slot, Timed};
use crate::ledger::{lsdb_lsas, Ledger, Outcome, Snapshot};
use fib_scenario::prelude::{
    build, run, RunOptions, ScenarioReport, ScenarioRun, ScenarioSpec, WorkloadSpec,
};
use fib_trace::AggSink;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sim seconds to nanoseconds, the simulator's own rounding.
fn to_ns(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9).round() as u64
}

/// Wall seconds a timed segment aims at: short next to the host's
/// speed episodes (see [`crate::gauge`]).
pub const TARGET_SEGMENT_S: f64 = 0.1;

/// How a window of a run is cut into timed segments. Cut points are
/// whole multiples of `quantum_ns` of sim time (so a grid of the
/// scenario's ticks can be kept). The first step is `first` quanta;
/// after that the step doubles while segments take under a quarter of
/// [`TARGET_SEGMENT_S`] and halves while they take over it, between
/// one quantum and `max` quanta. The cut points therefore follow the
/// host's timing, which must not (and, by the output checks, does not)
/// change any output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steps {
    /// Sim nanoseconds every cut point is a multiple of.
    pub quantum_ns: u64,
    /// First step, in quanta.
    pub first: u64,
    /// Largest step, in quanta.
    pub max: u64,
}

/// One scenario run to drive: a resolved spec, its options, and how
/// to cut it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable label (sweep cell label or workload name).
    pub label: String,
    /// The resolved scenario.
    pub spec: ScenarioSpec,
    /// Run-time options.
    pub opts: RunOptions,
    /// End of bring-up: the first scripted stimulus, in seconds.
    pub stimulus: f64,
    /// How bring-up is cut (`None`: one segment).
    pub bringup_steps: Option<Steps>,
    /// How the window is cut (`None`: one segment).
    pub window_steps: Option<Steps>,
}

impl Cell {
    /// A cell split at its first scripted stimulus.
    pub fn new(label: impl Into<String>, spec: ScenarioSpec, opts: RunOptions) -> Cell {
        let horizon = opts.horizon_secs.unwrap_or(spec.horizon_secs);
        let stimulus = first_stimulus(&spec).clamp(0.0, horizon);
        Cell {
            label: label.into(),
            spec,
            opts,
            stimulus,
            bringup_steps: None,
            window_steps: None,
        }
    }

    /// Horizon in effect, seconds.
    pub fn horizon(&self) -> f64 {
        self.opts.horizon_secs.unwrap_or(self.spec.horizon_secs)
    }
}

/// The first scripted stimulus of a spec: the earliest workload start
/// or fault-script entry. A spec driven only by a continuous process
/// (a diurnal mix) has none, and its bring-up window is empty (0 s).
pub fn first_stimulus(spec: &ScenarioSpec) -> f64 {
    let workloads = spec.workloads.iter().filter_map(|w| match w {
        WorkloadSpec::Paper { .. } => Some(0.0),
        WorkloadSpec::Constant { at, .. } => Some(*at),
        WorkloadSpec::Poisson { start, .. } => Some(*start),
        WorkloadSpec::Diurnal { .. } => None,
    });
    let events = spec.events.iter().map(|e| e.at);
    workloads.chain(events).reduce(f64::min).unwrap_or(0.0)
}

/// What a finished run must reproduce exactly: digests of its summary
/// CSV and of summary plus trace CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a of the summary CSV alone.
    pub summary: u64,
    /// FNV-1a of the summary CSV followed by the trace CSV.
    pub full: u64,
}

impl Digest {
    /// Digest a finished report.
    pub fn of(report: &ScenarioReport) -> Digest {
        let summary = report.summary_csv();
        let mut h = Fnv::new();
        h.write(summary.as_bytes());
        let summary_only = h.finish();
        h.write(b"\n--trace--\n");
        h.write(report.trace_csv.as_bytes());
        Digest {
            summary: summary_only,
            full: h.finish(),
        }
    }
}

/// The plain, unsplit run of a cell (`fib_scenario::run`): the
/// reference every split run must match.
pub fn run_plain(cell: &Cell) -> Result<Digest, String> {
    let report = run(&cell.spec, cell.opts).map_err(|e| e.to_string())?;
    Ok(Digest::of(&report))
}

/// One traced stage: wall time plus each phase's span count and self
/// seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Wall seconds of the stage (summed over cells on the grid).
    pub wall_s: f64,
    /// Phase name → (spans, self seconds).
    pub phases: BTreeMap<&'static str, (u64, f64)>,
}

impl Profile {
    fn from_sink(wall_s: f64, sink: Option<AggSink>) -> Profile {
        let phases = sink
            .map(|s| {
                s.attribution()
                    .into_iter()
                    .map(|a| (a.phase, (a.spans, a.self_ns as f64 * 1e-9)))
                    .collect()
            })
            .unwrap_or_default();
        Profile { wall_s, phases }
    }

    /// Wall time no phase span covers.
    pub fn untraced_s(&self) -> f64 {
        self.wall_s - self.phases.values().map(|(_, s)| s).sum::<f64>()
    }

    /// Self seconds of one phase (0 when it recorded no span).
    pub fn self_s(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |p| p.1)
    }

    /// Spans of one phase.
    pub fn spans(&self, phase: &str) -> u64 {
        self.phases.get(phase).map_or(0, |p| p.0)
    }

    /// Fold another stage in (grid totals, or `window` + `report`).
    pub fn add(&mut self, o: &Profile) {
        self.wall_s += o.wall_s;
        for (k, (n, s)) in &o.phases {
            let e = self.phases.entry(k).or_default();
            e.0 += n;
            e.1 += s;
        }
    }
}

/// Per-stage profiles of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stages {
    /// `fib_scenario::build`.
    pub setup: Profile,
    /// Started world → first stimulus.
    pub bringup: Profile,
    /// First stimulus → horizon.
    pub window: Profile,
    /// `ScenarioRun::finish`.
    pub report: Profile,
}

impl Stages {
    /// Fold another run's stages in.
    pub fn add(&mut self, o: &Stages) {
        self.setup.add(&o.setup);
        self.bringup.add(&o.bringup);
        self.window.add(&o.window);
        self.report.add(&o.report);
    }
}

/// Times of one split run, wall and scaled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Inside `build`.
    pub setup: Timed,
    /// Started world → first stimulus.
    pub bringup: Timed,
    /// First stimulus → horizon, plus `finish`.
    pub window: Timed,
}

impl Times {
    /// The whole run: set-up, bring-up and window.
    pub fn run(&self) -> Timed {
        let mut t = self.setup;
        t.add(self.bringup);
        t.add(self.window);
        t
    }

    /// Fold another run's times in.
    pub fn add(&mut self, o: &Times) {
        self.setup.add(o.setup);
        self.bringup.add(o.bringup);
        self.window.add(o.window);
    }
}

/// Everything one split run produced.
#[derive(Debug, Clone)]
pub struct Split {
    /// Report digests.
    pub digest: Digest,
    /// The work ledger.
    pub ledger: Ledger,
    /// Times per stage.
    pub times: Times,
    /// Every gauge reading the run took, seconds.
    pub gauges: Vec<f64>,
    /// Per-stage profiles (traced runs only; default otherwise).
    pub stages: Stages,
}

/// Run `f` as one stage, under a fresh `AggSink` when `trace` is set;
/// `f` returns its result and the wall seconds its timed segments took.
fn stage<T>(trace: bool, f: impl FnOnce() -> (T, f64)) -> (T, Profile) {
    if trace {
        fib_trace::install(Box::new(AggSink::new()));
    }
    let (out, wall) = f();
    let sink = if trace {
        fib_trace::take()
            .and_then(|s| s.into_any().downcast::<AggSink>().ok())
            .map(|b| *b)
    } else {
        None
    };
    (out, Profile::from_sink(wall, sink))
}

/// Advance `sr` from `from` to `to` (sim seconds) in timed segments
/// cut by `steps`; returns the wall seconds.
fn advance(
    sr: &mut ScenarioRun,
    meter: &mut Meter,
    slot: Slot,
    steps: Option<Steps>,
    (from, to): (f64, f64),
) -> ((), f64) {
    let end = to_ns(to);
    let Some(st) = steps else {
        return ((), meter.time(slot, || sr.run_until_secs(to)).1);
    };
    let q = st.quantum_ns.max(1);
    let mut now = to_ns(from);
    let mut step = st.first.clamp(1, st.max.max(1));
    let mut wall = 0.0;
    while now < end {
        let next = ((now / q + step) * q).min(end);
        let w = meter.time(slot, || sr.run_until_secs(next as f64 / 1e9)).1;
        wall += w;
        now = next;
        if w > TARGET_SEGMENT_S {
            step = (step / 2).max(1);
        } else if w < TARGET_SEGMENT_S / 4.0 {
            step = (step * 2).min(st.max.max(1));
        }
    }
    ((), wall)
}

/// Drive a cell through build → bring-up → window → finish, timing
/// each public call, reading the ledger at every boundary.
pub fn run_split(cell: &Cell, trace: bool) -> Result<Split, String> {
    let mut meter = Meter::new();
    let (built, setup) = stage(trace, || {
        meter.time(Slot::Setup, || build(&cell.spec, cell.opts))
    });
    let mut sr = built.map_err(|e| e.to_string())?;
    let horizon = sr.horizon_secs();
    let start = Snapshot::of(&sr);
    let ((), bringup) = stage(trace, || {
        advance(
            &mut sr,
            &mut meter,
            Slot::Bringup,
            cell.bringup_steps,
            (0.0, cell.stimulus),
        )
    });
    let mid = Snapshot::of(&sr);
    let lsas = lsdb_lsas(&mut sr);
    let ((), window) = stage(trace, || {
        advance(
            &mut sr,
            &mut meter,
            Slot::Window,
            cell.window_steps,
            (cell.stimulus, horizon),
        )
    });
    let end = Snapshot::of(&sr);
    let (report, finish) = stage(trace, || meter.time(Slot::Window, || sr.finish()));
    let ([setup_t, bringup_t, window_t], gauges) = meter.finish();
    let ledger = Ledger {
        bringup: mid.since(&start),
        window: end.since(&mid),
        lsdb_lsas: lsas,
        outcome: Outcome {
            sessions: report.qoe.sessions as u64,
            stalls: u64::from(report.qoe.stalls),
            stall_secs: report.qoe.stall_secs,
            qoe_mean: report.qoe.mean_score,
            unroutable_flow_secs: report.unroutable_flow_secs,
            ctrl_bytes: report.ctrl_bytes,
        },
    };
    Ok(Split {
        digest: Digest::of(&report),
        ledger,
        times: Times {
            setup: setup_t,
            bringup: bringup_t,
            window: window_t,
        },
        gauges,
        stages: if trace {
            Stages {
                setup,
                bringup,
                window,
                report: finish,
            }
        } else {
            Stages::default()
        },
    })
}

/// One set-up-only pass: `build` for every cell in turn, each timed
/// as a segment (the sim is dropped outside the timed region).
pub fn setup_pass(cells: &[Cell]) -> Result<Timed, String> {
    let mut meter = Meter::new();
    for cell in cells {
        meter
            .time(Slot::Setup, || build(&cell.spec, cell.opts))
            .0
            .map_err(|e| e.to_string())?;
    }
    Ok(meter.finish().0[Slot::Setup as usize])
}

/// Run `work` on every index of `order` (a permutation of `0..n`)
/// across `jobs` worker threads: one shared cursor over `order`,
/// results filed by index. A panic fails only its own index. With one
/// job everything runs on the calling thread.
pub fn par_map<T, F>(order: &[usize], jobs: usize, work: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
{
    let guarded = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| work(i))).unwrap_or_else(|p| Err(panic_message(&*p)))
    };
    let slots: Mutex<Vec<Option<Result<T, String>>>> =
        Mutex::new((0..order.len()).map(|_| None).collect());
    let file = |i: usize, out| {
        slots
            .lock()
            .expect("no thread panics while holding the slots")[i] = Some(out);
    };
    if jobs <= 1 {
        for &i in order {
            file(i, guarded(i));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(order.len()) {
                scope.spawn(|| {
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        file(i, guarded(i));
                    }
                });
            }
        });
    }
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|s| s.expect("order is a permutation of the indices"))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic".to_string()
    }
}
