//! Timing segments of work at a reference host speed.
//!
//! The hosts this benchmark runs on are shared: the core a vCPU runs on
//! slows down and speeds up with its neighbours' load, by up to 2x over
//! episodes of seconds to minutes, so whole invocations run
//! fast or slow together and a median over passes cannot steady them.
//! Every timed segment is therefore bracketed by readings of a fixed
//! gauge loop that belongs to the benchmark (not to the program, so no
//! change to the program can move it), and its wall time is rescaled
//! by how slow the gauge ran around it:
//!
//! ```text
//! scaled = wall * GAUGE_REF_S / median(the readings around the segment)
//! ```
//!
//! "Around" is up to [`GAUGE_WINDOW`] readings either side of the
//! segment, so one reading that an interrupt or a preemption stretched
//! cannot skew the segments next to it.
//!
//! A scaled second is a wall second at the host speed where one gauge
//! reading takes [`GAUGE_REF_S`]. The gauge mixes the kinds of work the
//! co-simulator does: data-bound loops on cache-sized data (a
//! binary-heap Dijkstra, hash-map churn, a sort) and code-bound ones
//! (number formatting, B-tree updates, a branchy bytecode
//! interpreter). The neighbours' load slows both kinds, the second
//! sometimes alone (most likely a busy sibling hyperthread contending
//! for the front end), and the co-simulator, a large program, feels
//! both; a pure arithmetic
//! loop barely moves with either and a DRAM pointer chase is too noisy.
//! Segments are short (at most a few hundred milliseconds) next to the
//! host's speed episodes, so the readings either side of a segment see
//! the speed it ran at. Raw wall seconds are kept beside the scaled
//! ones.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds one gauge reading takes at the reference speed (readings
/// taken between the co-simulator's segments have medians of 1.7–2.7 ms
/// on the 2-vCPU Sapphire Rapids KVM guest the benchmark was tuned on).
pub const GAUGE_REF_S: f64 = 2.0e-3;

/// Wall seconds of timed work between gauge readings (at least; a
/// reading follows the segment that crosses it).
pub const GAUGE_EVERY_S: f64 = 0.05;

/// Readings either side of a segment that its scale is the median of.
pub const GAUGE_WINDOW: usize = 5;

/// Nodes of the gauge graph.
const NODES: usize = 2048;
/// Out-edges per node.
const DEGREE: usize = 4;
/// Hash-map updates per reading.
const HASH_OPS: u64 = 8_000;
/// Values sorted per reading.
const SORT_LEN: u64 = 16_384;
/// Numbers formatted per reading.
const FMT_OPS: u64 = 1_000;
/// B-tree updates per reading.
const TREE_OPS: u64 = 3_000;
/// Passes of the bytecode interpreter over its program per reading.
const INTERP_ROUNDS: u64 = 300;
/// Length of the interpreter's program.
const PROGRAM_LEN: usize = 256;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A fixed random digraph in compressed adjacency form (targets and
/// weights), the same on every host and run.
fn graph() -> &'static [(u32, u32)] {
    static GRAPH: OnceLock<Vec<(u32, u32)>> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        (0..NODES * DEGREE)
            .map(|_| {
                let to = (xorshift(&mut x) % NODES as u64) as u32;
                let w = (xorshift(&mut x) % 100 + 1) as u32;
                (to, w)
            })
            .collect()
    })
}

/// Buffers a thread's gauge readings reuse, so that a reading does
/// not allocate and cannot shift the program's heap between runs.
#[derive(Default)]
struct Scratch {
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
    text: String,
    tree: BTreeMap<u64, u64>,
}

impl Scratch {
    /// Dijkstra over the gauge graph from a fixed source.
    fn dijkstra(&mut self) -> u64 {
        let g = graph();
        let (dist, heap) = (&mut self.dist, &mut self.heap);
        dist.clear();
        dist.resize(NODES, u32::MAX);
        dist[0] = 0;
        heap.push(Reverse((0, 0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = u as usize;
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &g[u * DEGREE..(u + 1) * DEGREE] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist.iter().map(|&d| u64::from(d)).sum()
    }

    /// Counting into a hash map with a fixed (unrandomised) hasher.
    fn hash_churn(&mut self) -> u64 {
        self.counts.clear();
        let mut x = 7u64;
        for _ in 0..HASH_OPS {
            *self.counts.entry(xorshift(&mut x) % 20_000).or_default() += 1;
        }
        self.counts.len() as u64
    }

    /// Sorting a fixed pseudo-random vector.
    fn sort(&mut self) -> u64 {
        self.sorted.clear();
        self.sorted
            .extend((0..SORT_LEN).map(|i| i.wrapping_mul(2_654_435_761) % 100_003));
        self.sorted.sort_unstable();
        self.sorted[self.sorted.len() / 2]
    }

    /// Formatting integers and floats into a string.
    fn format(&mut self) -> u64 {
        self.text.clear();
        let mut x = 3u64;
        for i in 0..FMT_OPS {
            let v = xorshift(&mut x);
            let _ = write!(
                self.text,
                "{} {:.3} {:x};",
                v % 100_000,
                (v % 10_007) as f64 / 7.0,
                i
            );
        }
        self.text.len() as u64
    }

    /// Inserting into, updating and removing from a B-tree map.
    fn btree(&mut self) -> u64 {
        self.tree.clear();
        let mut x = 9u64;
        for _ in 0..TREE_OPS {
            let k = xorshift(&mut x) % 5_000;
            if k % 3 == 0 {
                self.tree.remove(&k);
            } else {
                *self.tree.entry(k).or_insert(0) += 1;
            }
        }
        self.tree.len() as u64
    }
}

/// A fixed pseudo-random bytecode program of 16 opcodes.
fn program() -> &'static [u8] {
    static PROGRAM: OnceLock<Vec<u8>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let mut x = 77u64;
        (0..PROGRAM_LEN)
            .map(|_| (xorshift(&mut x) % 16) as u8)
            .collect()
    })
}

/// Interpreting the bytecode program over eight registers: dispatch
/// and data-dependent branches, as in an event handler.
fn interpret() -> u64 {
    let mut regs = [1u64; 8];
    let mut acc = 0u64;
    for round in 0..INTERP_ROUNDS {
        for (pc, &op) in program().iter().enumerate() {
            let a = (pc + round as usize) % 8;
            let b = (pc * 3 + 1) % 8;
            match op {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                2 => regs[a] ^= regs[b] >> 3,
                3 => {
                    if regs[a] & 1 == 0 {
                        regs[b] = regs[b].wrapping_add(7)
                    } else {
                        regs[b] = regs[b].rotate_left(5)
                    }
                }
                4 => acc = acc.wrapping_add(regs[a]),
                5 => regs[a] = regs[a].wrapping_sub(round),
                6 => {
                    if regs[b] % 3 == 0 {
                        acc ^= regs[a]
                    }
                }
                7 => regs[a] = regs[a].swap_bytes(),
                8 => regs[a] /= regs[b] % 7 + 1,
                9 => regs[a] = u64::from(regs[a].leading_zeros()).wrapping_add(regs[b]),
                10 => {
                    if regs[a] > regs[b] {
                        regs.swap(a, b)
                    }
                }
                11 => regs[a] = regs[a].wrapping_shl((regs[b] % 13) as u32),
                12 => acc = acc.rotate_right(3) ^ regs[b],
                13 => regs[a] = u64::from(regs[a].count_ones()) * 31,
                14 => {
                    if acc & 4 != 0 {
                        regs[a] = regs[a].wrapping_add(acc)
                    }
                }
                _ => regs[b] = regs[a] ^ acc,
            }
        }
    }
    acc ^ regs.iter().fold(0u64, |s, &r| s.wrapping_add(r))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One gauge reading, seconds.
pub fn read_gauge() -> f64 {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let t0 = Instant::now();
        black_box(s.dijkstra());
        black_box(s.hash_churn());
        black_box(s.sort());
        black_box(s.format());
        black_box(s.btree());
        black_box(interpret());
        t0.elapsed().as_secs_f64()
    })
}

/// Wall and scaled seconds of some timed work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub wall: f64,
    /// Seconds at the reference speed.
    pub scaled: f64,
}

impl Timed {
    /// Add another measurement.
    pub fn add(&mut self, o: Timed) {
        self.wall += o.wall;
        self.scaled += o.scaled;
    }
}

/// What a segment's time counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Inside `build`.
    Setup,
    /// Started world → first scripted stimulus.
    Bringup,
    /// First stimulus → horizon, plus `finish`.
    Window,
}

const SLOTS: usize = 3;

/// Times segments of work on one thread, takes gauge readings between
/// them, and rescales them when closed (see the module docs).
#[derive(Debug)]
pub struct Meter {
    since: f64,
    /// Slot, wall seconds and the index of the reading before it.
    segments: Vec<(Slot, f64, usize)>,
    readings: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// A meter with its first gauge reading taken.
    pub fn new() -> Meter {
        Meter {
            since: 0.0,
            segments: Vec::new(),
            readings: vec![read_gauge()],
        }
    }

    /// Run `f` as one timed segment counted towards `slot`; returns its
    /// result and its wall seconds.
    pub fn time<T>(&mut self, slot: Slot, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        self.segments.push((slot, wall, self.readings.len() - 1));
        self.since += wall;
        if self.since >= GAUGE_EVERY_S {
            self.read();
        }
        (out, wall)
    }

    fn read(&mut self) {
        self.readings.push(read_gauge());
        self.since = 0.0;
    }

    /// Take the last reading and scale every segment; returns the
    /// totals per slot (indexed by `Slot as usize`) and every reading.
    pub fn finish(mut self) -> ([Timed; SLOTS], Vec<f64>) {
        if self.segments.last().map(|s| s.2) == Some(self.readings.len() - 1) {
            self.read();
        }
        let n = self.readings.len();
        let mut totals = [Timed::default(); SLOTS];
        let mut window = Vec::with_capacity(2 * GAUGE_WINDOW);
        for &(slot, wall, before) in &self.segments {
            let lo = (before + 1).saturating_sub(GAUGE_WINDOW);
            let hi = (before + GAUGE_WINDOW).min(n - 1);
            window.clear();
            window.extend_from_slice(&self.readings[lo..=hi]);
            window.sort_by(f64::total_cmp);
            let m = window.len();
            let median = 0.5 * (window[(m - 1) / 2] + window[m / 2]);
            totals[slot as usize].add(Timed {
                wall,
                scaled: wall * GAUGE_REF_S / median,
            });
        }
        (totals, self.readings)
    }
}
