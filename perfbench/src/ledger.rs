//! The work ledger: deterministic counts of what one scenario run did,
//! per window.
//!
//! Every count comes from a public read-out of the program
//! (`Sim::stats()`, the controller's `ControllerHandle`, the run's
//! `QoeSummary`, `Instance::lsdb()`), taken at the window boundaries
//! the benchmark drives. Counts depend only on the scenario, never on
//! the host or on tracing, so two runs of one workload must produce
//! identical ledgers; any drift is a failed run.

use fib_core::controller::ControllerStats;
use fib_netsim::sim::SimStats;
use fib_scenario::prelude::ScenarioRun;

/// Simulator and controller counters over one window (a difference of
/// two snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Events dispatched by the netsim loop.
    pub events: u64,
    /// IGP control packets delivered.
    pub ctrl_pkts: u64,
    /// IGP control bytes delivered.
    pub ctrl_bytes: u64,
    /// IGP control packets dropped on down links.
    pub ctrl_dropped: u64,
    /// Full Dijkstra runs, all routers.
    pub spf_full: u64,
    /// Route-phase-only SPF runs, all routers.
    pub spf_partial: u64,
    /// Fluid re-allocations.
    pub reallocs: u64,
    /// Flow paths re-resolved.
    pub paths_resolved: u64,
    /// Flow paths kept from cache.
    pub paths_skipped: u64,
    /// Allocation fill passes executed.
    pub alloc_fills: u64,
    /// Allocations answered from the unchanged-input cache.
    pub alloc_skips: u64,
    /// Failed path re-resolutions (flow found unroutable).
    pub unroutable: u64,
    /// SNMP operations served.
    pub snmp_ops: u64,
    /// Controller trigger checks.
    pub evaluations: u64,
    /// Controller plan attempts.
    pub reactions: u64,
    /// Lies injected.
    pub injections: u64,
    /// Lies retracted.
    pub retractions: u64,
    /// Plans that failed.
    pub failures: u64,
    /// Controller SNMP poll sweeps.
    pub snmp_sweeps: u64,
}

/// A point-in-time snapshot of the counters a [`Work`] is made from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    sim: SimStats,
    ctrl: ControllerStats,
}

impl Snapshot {
    /// Read the counters of a live run.
    pub fn of(run: &ScenarioRun) -> Snapshot {
        Snapshot {
            sim: run.sim.stats(),
            ctrl: run
                .ctrl
                .as_ref()
                .map(|h| h.lock().stats)
                .unwrap_or_default(),
        }
    }

    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Work {
        let (a, b) = (&earlier.sim, &self.sim);
        let (c, d) = (&earlier.ctrl, &self.ctrl);
        Work {
            events: b.events - a.events,
            ctrl_pkts: b.ctrl_pkts - a.ctrl_pkts,
            ctrl_bytes: b.ctrl_bytes - a.ctrl_bytes,
            ctrl_dropped: b.ctrl_dropped - a.ctrl_dropped,
            spf_full: b.spf_full_runs - a.spf_full_runs,
            spf_partial: b.spf_partial_runs - a.spf_partial_runs,
            reallocs: b.reallocs - a.reallocs,
            paths_resolved: b.paths_resolved - a.paths_resolved,
            paths_skipped: b.paths_skipped - a.paths_skipped,
            alloc_fills: b.alloc_fills - a.alloc_fills,
            alloc_skips: b.alloc_skips - a.alloc_skips,
            unroutable: b.unroutable - a.unroutable,
            snmp_ops: b.snmp_ops - a.snmp_ops,
            evaluations: d.evaluations - c.evaluations,
            reactions: d.reactions - c.reactions,
            injections: d.injections - c.injections,
            retractions: d.retractions - c.retractions,
            failures: d.failures - c.failures,
            snmp_sweeps: d.snmp_sweeps - c.snmp_sweeps,
        }
    }
}

impl Work {
    /// Field-wise sum (grid totals).
    pub fn add(&mut self, o: &Work) {
        self.events += o.events;
        self.ctrl_pkts += o.ctrl_pkts;
        self.ctrl_bytes += o.ctrl_bytes;
        self.ctrl_dropped += o.ctrl_dropped;
        self.spf_full += o.spf_full;
        self.spf_partial += o.spf_partial;
        self.reallocs += o.reallocs;
        self.paths_resolved += o.paths_resolved;
        self.paths_skipped += o.paths_skipped;
        self.alloc_fills += o.alloc_fills;
        self.alloc_skips += o.alloc_skips;
        self.unroutable += o.unroutable;
        self.snmp_ops += o.snmp_ops;
        self.evaluations += o.evaluations;
        self.reactions += o.reactions;
        self.injections += o.injections;
        self.retractions += o.retractions;
        self.failures += o.failures;
        self.snmp_sweeps += o.snmp_sweeps;
    }
}

/// The modeled outcome of a run (what a viewer and an operator see).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// Sessions in the run.
    pub sessions: u64,
    /// Total stalls.
    pub stalls: u64,
    /// Stalled session-seconds.
    pub stall_secs: f64,
    /// Mean per-session QoE score.
    pub qoe_mean: f64,
    /// Flow-seconds spent without a path.
    pub unroutable_flow_secs: f64,
    /// IGP control bytes delivered over the whole run.
    pub ctrl_bytes: u64,
}

/// Everything deterministic one scenario run produced, by window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Work from the started world to the first scripted stimulus.
    pub bringup: Work,
    /// Work from the first stimulus to the horizon.
    pub window: Work,
    /// LSDB entries summed over every router at the end of bring-up.
    pub lsdb_lsas: u64,
    /// The modeled outcome.
    pub outcome: Outcome,
}

impl Ledger {
    /// Field-wise sum (grid totals); the QoE mean is weighted by
    /// sessions.
    pub fn add(&mut self, o: &Ledger) {
        self.bringup.add(&o.bringup);
        self.window.add(&o.window);
        self.lsdb_lsas += o.lsdb_lsas;
        let (a, b) = (&mut self.outcome, &o.outcome);
        let sessions = a.sessions + b.sessions;
        if sessions > 0 {
            a.qoe_mean =
                (a.qoe_mean * a.sessions as f64 + b.qoe_mean * b.sessions as f64) / sessions as f64;
        }
        a.sessions = sessions;
        a.stalls += b.stalls;
        a.stall_secs += b.stall_secs;
        a.unroutable_flow_secs += b.unroutable_flow_secs;
        a.ctrl_bytes += b.ctrl_bytes;
    }

    /// A canonical text form: equal ledgers render equal text, and
    /// floats print with every digit, so comparing (or hashing) the
    /// text is an exact comparison.
    pub fn render(&self) -> String {
        format!(
            "bringup={:?};window={:?};lsdb_lsas={};outcome={:?}",
            self.bringup, self.window, self.lsdb_lsas, self.outcome
        )
    }
}

/// LSDB entries summed over every router of a live run.
pub fn lsdb_lsas(run: &mut ScenarioRun) -> u64 {
    let routers: Vec<_> = run.sim.ctx().routers().collect();
    routers
        .into_iter()
        .filter_map(|r| run.sim.instance(r))
        .map(|i| i.lsdb().len() as u64)
        .sum()
}
