//! Host fingerprint and a fixed-work calibration loop, printed with
//! every result so wall times from different machines can be set side
//! by side.

use fib_igp::builders::waxman;
use fib_igp::spf::shortest_paths;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name (`/proc/cpuinfo`), or `unknown`.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Fingerprint this host; `root` is the checkout the benchmark runs
    /// from (its `.git`, if any, names the commit).
    pub fn probe(root: &std::path::Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Hardware threads available (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve `.git/HEAD` by reading the ref files (no `git` process).
fn git_commit(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// The calibration loop: all-sources shortest paths on a fixed
/// 120-router Waxman graph, `reps` times; returns the median seconds
/// of one pass. Fixed work over a public function of the program, so
/// its time tracks the host's speed rather than any workload.
pub fn calibrate(reps: usize) -> f64 {
    let topo = waxman(&mut StdRng::seed_from_u64(1), 120, 0.4, 0.2, 10);
    let routers: Vec<_> = topo.routers().collect();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for &r in &routers {
                black_box(shortest_paths(black_box(&topo), r));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
