//! The benchmark's three workloads and the cells each one runs.

use crate::run::{Cell, Steps};
use fib_scenario::prelude::{load_scenario, load_sweep, RunOptions, ScenarioSpec};
use fib_scenario::sweep::spec::resolve_cell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Scenario both `metro_core` workloads run.
pub const METRO_SCENARIO: &str = "metro_core";
/// Sweep grid the `flashcrowd_grid` workload runs.
pub const GRID_SWEEP: &str = "flashcrowd_grid";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `scenarios/metro_core.toml`, controller on, one thread.
    MetroCore,
    /// The same spec with the controller disabled (the sweep engine's
    /// baseline twin), one thread.
    MetroCoreNofib,
    /// Every cell of `sweeps/flashcrowd_grid.toml`, on one worker per
    /// hardware thread.
    FlashcrowdGrid,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MetroCore,
        Workload::MetroCoreNofib,
        Workload::FlashcrowdGrid,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroCore => "metro_core",
            Workload::MetroCoreNofib => "metro_core_nofib",
            Workload::FlashcrowdGrid => "flashcrowd_grid",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload runs its cells on.
    pub fn jobs(self, nproc: usize) -> usize {
        match self {
            Workload::FlashcrowdGrid => nproc.max(1),
            Workload::MetroCore | Workload::MetroCoreNofib => 1,
        }
    }

    /// The cells to run, and the order to hand them to workers.
    ///
    /// The scenarios themselves are fixed (`metro_core` pins its seed;
    /// the modeled metrics must repeat exactly), so `seed` varies only
    /// the call schedule, which must not change any output: on the
    /// metro workloads it picks the first step of the bring-up and
    /// window cuts, on the grid the order cells are dispatched.
    pub fn cells(self, seed: u64) -> Result<(Vec<Cell>, Vec<usize>), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Workload::MetroCore | Workload::MetroCoreNofib => {
                let spec = load_scenario(METRO_SCENARIO).map_err(|e| e.to_string())?;
                let opts = RunOptions {
                    disable_controller: self == Workload::MetroCoreNofib,
                    ..RunOptions::default()
                };
                let mut cell = Cell::new(self.name(), spec, opts);
                let (bringup, window) = seeded_steps(&mut rng);
                cell.bringup_steps = Some(bringup);
                cell.window_steps = Some(window);
                Ok((vec![cell], vec![0]))
            }
            Workload::FlashcrowdGrid => {
                let sweep = load_sweep(GRID_SWEEP).map_err(|e| e.to_string())?;
                let mut bases: BTreeMap<String, ScenarioSpec> = BTreeMap::new();
                let mut cells = Vec::new();
                for cell in sweep.expand() {
                    if !bases.contains_key(&cell.scenario) {
                        let base = load_scenario(&cell.scenario).map_err(|e| e.to_string())?;
                        bases.insert(cell.scenario.clone(), base);
                    }
                    let (spec, opts) = resolve_cell(&bases[&cell.scenario], &cell, None);
                    cells.push(Cell::new(cell.label(), spec, opts));
                }
                let mut order: Vec<usize> = (0..cells.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                Ok((cells, order))
            }
        }
    }
}

/// Bring-up steps: 10 µs quanta up to 1 ms. The IGP cold start floods
/// in a burst of a few sim milliseconds that costs seconds of wall
/// time, so steps must get this fine to keep segments short; no flow
/// is up yet, so a cut there splits no accrual interval.
const BRINGUP_QUANTUM_NS: u64 = 10_000;
const BRINGUP_MAX: u64 = 100;
/// Window steps: the scenario's 100 ms tick (so a cut splits no
/// accrual interval) up to 1 s.
const WINDOW_QUANTUM_NS: u64 = 100_000_000;
const WINDOW_MAX: u64 = 10;

/// Bring-up and window steps, each starting at a seeded first step.
fn seeded_steps(rng: &mut StdRng) -> (Steps, Steps) {
    let bringup = Steps {
        quantum_ns: BRINGUP_QUANTUM_NS,
        first: rng.gen_range(1..=BRINGUP_MAX),
        max: BRINGUP_MAX,
    };
    let window = Steps {
        quantum_ns: WINDOW_QUANTUM_NS,
        first: rng.gen_range(1..=WINDOW_MAX),
        max: WINDOW_MAX,
    };
    (bringup, window)
}
