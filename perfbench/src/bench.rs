//! One benchmark invocation: reference pass, set-up passes, timed
//! passes, and (when asked) one traced pass, with every run's output
//! checked.

use crate::gauge::Timed;
use crate::host::{calibrate, nproc};
use crate::ledger::Ledger;
use crate::run::{par_map, run_plain, run_split, setup_pass, Cell, Digest, Split, Stages, Times};
use crate::workload::{Workload, GRID_SWEEP};
use fib_scenario::prelude::{load_sweep, run_sweep};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed for the call schedule (see [`Workload::cells`]).
    pub seed: u64,
    /// Seconds of timed passes to run (at least `min_passes` run).
    pub seconds: f64,
    /// Add the traced pass and the per-layer metrics.
    pub trace: bool,
    /// Timed split passes to run however long they take.
    pub min_passes: usize,
    /// Set-up-only passes per round (each builds every cell once); a
    /// round follows the reference pass and every timed pass.
    pub setup_passes: usize,
    /// Repetitions of the host calibration loop.
    pub calib_reps: usize,
}

impl Config {
    /// The settings the benchmark command uses for `workload`.
    pub fn standard(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        // Minimum split passes are sized so that all invocations of a
        // full comparison fit the benchmark's time budget even while
        // the host runs slow: besides the unsplit reference pass, a
        // `metro_core` pass takes ~17 s (and its rescaled figures are
        // the steadiest, so one pass is enough), a `metro_core_nofib`
        // pass ~11 s (its short window is the noisiest figure and
        // needs three), a grid pass ~3 s.
        let (min_passes, setup_passes) = match workload {
            Workload::MetroCore => (1, 16),
            Workload::MetroCoreNofib => (3, 8),
            Workload::FlashcrowdGrid => (3, 3),
        };
        Config {
            workload,
            seed,
            seconds,
            trace,
            min_passes,
            setup_passes,
            calib_reps: 5,
        }
    }
}

/// Per-pass time samples, wall and scaled (see [`crate::gauge`]).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Whole split pass: set-up, bring-up and window, summed over cells.
    pub run_s: Vec<Timed>,
    /// Inside `build`, summed over cells (set-up-only passes).
    pub setup_s: Vec<Timed>,
    /// Bring-up windows, summed over cells.
    pub bringup_s: Vec<Timed>,
    /// Scenario windows plus `finish`, summed over cells.
    pub window_s: Vec<Timed>,
    /// Wall seconds of the unsplit reference pass.
    pub reference_wall_s: f64,
    /// Every gauge reading of the timed passes, seconds.
    pub gauges: Vec<f64>,
}

/// The traced pass.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-stage profiles summed over cells.
    pub stages: Stages,
    /// Set-up, bring-up and window of the traced pass, summed over
    /// cells.
    pub run_s: Timed,
    /// Wall seconds of `run_sweep` over the grid (grid only).
    pub sweep_exec_s: Option<f64>,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The configuration that ran.
    pub config: Config,
    /// Cells per pass.
    pub cells: usize,
    /// Worker threads per pass.
    pub jobs: usize,
    /// Scenario runs attempted (every pass, every cell).
    pub attempted: u64,
    /// Runs that errored, panicked or failed their output check.
    pub failed: u64,
    /// Why, one line per failed run (capped).
    pub errors: Vec<String>,
    /// Timed samples.
    pub samples: Samples,
    /// Ledger totals over the cells (first timed pass).
    pub ledger: Ledger,
    /// Digest of every cell's report digest, in cell order.
    pub report_digest: u64,
    /// Digest of every cell's rendered ledger, in cell order.
    pub ledger_digest: u64,
    /// The traced pass, when asked for.
    pub traced: Option<Traced>,
    /// Peak resident set of the process once the reference pass is
    /// done: what one plain run of the workload needs, MiB. Later
    /// passes interleave gauge readings and timing-dependent cuts with
    /// the program's allocations, so the process's final peak (in the
    /// record) varies with the host's timing.
    pub peak_rss_mib: f64,
    /// Peak resident set of the process at the end, MiB.
    pub peak_rss_end_mib: f64,
    /// Host calibration loop, median seconds.
    pub calib_s: f64,
}

const MAX_ERRORS: usize = 20;

/// Checks each pass against the reference pass and the first timed
/// pass, and counts failures.
struct Checker {
    reference: Vec<Option<Digest>>,
    ledgers: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Check one pass; returns the splits that passed, by cell.
    fn check(&mut self, cells: &[Cell], pass: Vec<Result<Split, String>>) -> Vec<Option<Split>> {
        pass.into_iter()
            .enumerate()
            .map(|(i, r)| {
                self.attempted += 1;
                let label = &cells[i].label;
                let split = match r {
                    Ok(s) => s,
                    Err(e) => {
                        self.fail(format!("{label}: {e}"));
                        return None;
                    }
                };
                if self.reference[i] != Some(split.digest) {
                    self.fail(format!(
                        "{label}: split report {:016x} differs from the unsplit run",
                        split.digest.full
                    ));
                    return None;
                }
                let ledger = split.ledger.render();
                match &self.ledgers[i] {
                    None => self.ledgers[i] = Some(ledger),
                    Some(first) if *first != ledger => {
                        self.fail(format!("{label}: work ledger drifted: {ledger} vs {first}"));
                        return None;
                    }
                    Some(_) => {}
                }
                Some(split)
            })
            .collect()
    }
}

/// Run one invocation of the configured workload.
pub fn execute(config: Config) -> Result<Outcome, String> {
    let (cells, order) = config.workload.cells(config.seed)?;
    execute_cells(config, &cells, &order)
}

/// Run one invocation over explicit `cells`, dispatched in `order` (a
/// permutation of the cell indices). The grid workload additionally
/// cross-checks its traced pass against `run_sweep`.
pub fn execute_cells(config: Config, cells: &[Cell], order: &[usize]) -> Result<Outcome, String> {
    let jobs = config.workload.jobs(nproc());
    let calib_s = calibrate(config.calib_reps);

    // Reference pass: plain `fib_scenario::run`, unsplit. Its wall time
    // goes in the record only: one call cannot be rescaled segment by
    // segment.
    let t0 = Instant::now();
    let reference = par_map(order, jobs, |i| run_plain(&cells[i]));
    let reference_rss_mib = peak_rss_mib().unwrap_or(0.0);
    let mut samples = Samples {
        reference_wall_s: t0.elapsed().as_secs_f64(),
        ..Samples::default()
    };
    let mut checker = Checker {
        reference: vec![None; cells.len()],
        ledgers: vec![None; cells.len()],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for (i, r) in reference.into_iter().enumerate() {
        checker.attempted += 1;
        match r {
            Ok(d) => checker.reference[i] = Some(d),
            Err(e) => checker.fail(format!("{} (unsplit): {e}", cells[i].label)),
        }
    }

    setup_round(cells, config.setup_passes, &mut samples.setup_s)?;

    // Timed passes.
    let started = Instant::now();
    let mut first: Option<Vec<Option<Split>>> = None;
    loop {
        let pass = par_map(order, jobs, |i| run_split(&cells[i], false));
        let pass = checker.check(cells, pass);
        let times = total_times(&pass);
        samples.run_s.push(times.run());
        samples.bringup_s.push(times.bringup);
        samples.window_s.push(times.window);
        for s in pass.iter().flatten() {
            samples.gauges.extend_from_slice(&s.gauges);
        }
        first.get_or_insert(pass);
        setup_round(cells, config.setup_passes, &mut samples.setup_s)?;
        if samples.bringup_s.len() >= config.min_passes
            && started.elapsed().as_secs_f64() >= config.seconds
        {
            break;
        }
    }
    let first = first.expect("at least one timed pass");

    // Traced pass: same cells, a fresh AggSink per stage.
    let traced = if config.trace {
        let pass = par_map(order, jobs, |i| run_split(&cells[i], true));
        let pass = checker.check(cells, pass);
        let run_s = total_times(&pass).run();
        let mut stages = Stages::default();
        for s in pass.iter().flatten() {
            stages.add(&s.stages);
        }
        let sweep_exec_s = if config.workload == Workload::FlashcrowdGrid {
            Some(check_sweep(cells, &first, jobs, &mut checker)?)
        } else {
            None
        };
        Some(Traced {
            stages,
            run_s,
            sweep_exec_s,
        })
    } else {
        None
    };

    let mut ledger = Ledger::default();
    let mut reports = crate::digest::Fnv::new();
    let mut ledgers = crate::digest::Fnv::new();
    for s in first.iter().flatten() {
        ledger.add(&s.ledger);
        reports.write(&s.digest.full.to_le_bytes());
        ledgers.write(s.ledger.render().as_bytes());
    }
    Ok(Outcome {
        config,
        cells: cells.len(),
        jobs,
        attempted: checker.attempted,
        failed: checker.failed,
        errors: checker.errors,
        samples,
        ledger,
        report_digest: reports.finish(),
        ledger_digest: ledgers.finish(),
        traced,
        peak_rss_mib: reference_rss_mib,
        peak_rss_end_mib: peak_rss_mib().unwrap_or(0.0),
        calib_s,
    })
}

/// The times of a pass's checked runs, summed over cells.
fn total_times(pass: &[Option<Split>]) -> Times {
    let mut t = Times::default();
    for s in pass.iter().flatten() {
        t.add(&s.times);
    }
    t
}

/// `passes` set-up-only passes, serial, so each sample is time inside
/// `build` alone, summed over cells. Rounds run between the timed
/// passes, so the samples span the whole invocation rather than one
/// moment of the host's load.
fn setup_round(cells: &[Cell], passes: usize, out: &mut Vec<Timed>) -> Result<(), String> {
    for _ in 0..passes {
        out.push(setup_pass(cells)?);
    }
    Ok(())
}

/// Run the grid through the sweep engine itself (`run_sweep`, which
/// traces every cell), and check its cells against the benchmark's own
/// runs: no cell may fail and every summary must match. Returns the
/// sweep's wall seconds.
fn check_sweep(
    cells: &[Cell],
    first: &[Option<Split>],
    jobs: usize,
    checker: &mut Checker,
) -> Result<f64, String> {
    let sweep = load_sweep(GRID_SWEEP).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let run = run_sweep(&sweep, jobs, None).map_err(|e| e.to_string())?;
    let exec_s = t0.elapsed().as_secs_f64();
    if run.outcomes.len() != cells.len() {
        return Err(format!(
            "run_sweep ran {} cells, the benchmark {}",
            run.outcomes.len(),
            cells.len()
        ));
    }
    for (i, o) in run.outcomes.iter().enumerate() {
        checker.attempted += 1;
        match &o.result {
            Err(e) => checker.fail(format!("{} (run_sweep): {e}", cells[i].label)),
            Ok(m) => {
                let ours = first[i].as_ref().map(|s| s.digest.summary);
                if ours != Some(Digest::of(&m.report).summary) {
                    checker.fail(format!(
                        "{} (run_sweep): summary differs from the benchmark's run",
                        cells[i].label
                    ));
                }
            }
        }
    }
    Ok(exec_s)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
