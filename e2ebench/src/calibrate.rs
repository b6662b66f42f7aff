//! The host-speed reference: a fixed kernel of the benchmark's own,
//! timed between measured work, that every timed metric is scaled by.
//!
//! On the shared 2-vCPU host the same code ran at half speed for minutes
//! at a time (neighbours on the physical cores), in CPU time as well as
//! in wall time, so no choice of clock keeps two sets of runs apart from
//! the host's mood. The reference kernel is single-source Dijkstra over
//! a fixed 160 × 160 grid with pseudo-random weights — the same mix of
//! heap operations, adjacency scans and dependent loads the program's
//! searches make, on a working set (≈ 1 MB) that outgrows the private
//! caches as the program's does — and it shares no code with the
//! program, so a change to the program cannot move it. Its time tracks
//! the memory-side contention the slow periods come from; a pure
//! arithmetic loop stayed within 3% through them.
//! A [`Speed`] probe times the kernel; measured seconds divided by the
//! probe's slowdown against [`NOMINAL_PROBE_S`] are *reference seconds*:
//! what the work would have taken on the host at its nominal speed.

use crate::clock::CpuInstant;
use crate::stats::median;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Grid side of the reference graph.
const SIDE: usize = 160;

/// Kernel runs of a probe between slices of serving (from different
/// sources); a probe is the median run, so one run a timer interrupt
/// lands in does not move it.
pub const SERVE_PROBE_RUNS: usize = 3;

/// Kernel runs of a probe around a build: a build is one call of about a
/// second with no probe inside it, so its two probes are made steadier.
pub const BUILD_PROBE_RUNS: usize = 9;

/// CPU seconds of one kernel run on the host of the first numbers
/// (2 vCPU x86_64); a probe that takes twice as long means the host runs
/// at half speed.
pub const NOMINAL_PROBE_S: f64 = 4.0e-3;

/// The reference graph in compressed adjacency form.
struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    next_source: usize,
}

impl Reference {
    /// Builds the fixed grid: every vertex joined to its four neighbours,
    /// weights drawn from a constant-seeded xorshift (so every run of the
    /// benchmark times the same graph).
    fn new() -> Reference {
        let n = SIDE * SIDE;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut weight = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + (state % 1000) as u32
        };
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for r in 0..SIDE {
            for c in 0..SIDE {
                let v = r * SIDE + c;
                for u in [
                    (c + 1 < SIDE).then(|| v + 1),
                    (r + 1 < SIDE).then(|| v + SIDE),
                ]
                .into_iter()
                .flatten()
                {
                    let w = weight();
                    adj[v].push((u as u32, w));
                    adj[u].push((v as u32, w));
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        offsets.push(0);
        for list in &adj {
            for &(u, w) in list {
                targets.push(u);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        Reference {
            offsets,
            targets,
            weights,
            dist: vec![u64::MAX; n],
            heap: BinaryHeap::new(),
            next_source: 0,
        }
    }

    /// One full single-source Dijkstra from the next of a fixed cycle of
    /// sources; returns the sum of distances (a checksum the caller keeps
    /// alive).
    fn run(&mut self) -> u64 {
        let n = SIDE * SIDE;
        let source = (self.next_source * 7919) % n;
        self.next_source += 1;
        self.dist.fill(u64::MAX);
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue;
            }
            for a in self.offsets[v] as usize..self.offsets[v + 1] as usize {
                let u = self.targets[a] as usize;
                let du = d + u64::from(self.weights[a]);
                if du < self.dist[u] {
                    self.dist[u] = du;
                    self.heap.push(Reverse((du, u as u32)));
                }
            }
        }
        self.dist.iter().sum()
    }
}

/// Probes of the host's speed, taken between measured work.
pub struct Speed {
    kernel: Reference,
    /// CPU seconds of every probe so far, in order.
    pub probes_s: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// A prober with its kernel built and warmed.
    pub fn new() -> Speed {
        let mut kernel = Reference::new();
        for _ in 0..SERVE_PROBE_RUNS {
            std::hint::black_box(kernel.run());
        }
        Speed {
            kernel,
            probes_s: Vec::new(),
        }
    }

    /// Times one probe of `runs` kernel runs and returns the host's
    /// slowdown now: the median run's CPU seconds over
    /// [`NOMINAL_PROBE_S`] (1 at nominal speed, 2 at half speed).
    pub fn probe(&mut self, runs: usize) -> f64 {
        let runs: Vec<f64> = (0..runs)
            .map(|_| {
                let t = CpuInstant::now();
                std::hint::black_box(self.kernel.run());
                t.elapsed().as_secs_f64()
            })
            .collect();
        let secs = median(&runs);
        self.probes_s.push(secs);
        secs / NOMINAL_PROBE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_fixed() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        let first = a.run();
        assert_eq!(first, b.run());
        assert_ne!(first, 0);
        assert_eq!(a.offsets.len(), SIDE * SIDE + 1);
        assert_eq!(a.targets.len(), 4 * SIDE * (SIDE - 1));
        assert!(Speed::new().probe(SERVE_PROBE_RUNS) > 0.0);
    }
}
