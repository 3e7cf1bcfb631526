//! Host-speed calibration.
//!
//! The reference host is a shared two-vCPU virtual machine whose speed
//! drifts by 10–25% over minutes with its neighbours' load, for compute
//! and memory alike and with no steal time reported. That drift, not the
//! program, dominated the run-to-run spread of raw wall-clock times.
//!
//! The single-threaded workloads therefore time a fixed kernel (see
//! [`Kernel`]) before the first operation and after every operation, and
//! `serve` times it between the segments of its timed phase, while its
//! clients pause. A closed loop's operation times are multiplied by the
//! nominal kernel time over the median of the kernel runs around each
//! operation ([`Calibration::scale_around`]), `serve`'s by the same ratio
//! for the kernel runs around their segment, and set-up times by the
//! run-wide factor ([`Calibration::scale`]): the reported times are
//! expressed at the reference host speed. The kernel is the benchmark's
//! own code, so a change to the program cannot move it. Raw times are
//! printed too.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which kernel a workload is timed against: the one whose speed tracks
/// its own best across the host's slow spells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Memory latency and bandwidth plus branchy integer work (`exact`,
    /// `stream`: hash interning and multi-megabyte passes).
    Mixed,
    /// Branchy, allocation-heavy integer work only (`refine`: a small
    /// working set, high instruction rate).
    Compute,
    /// The `Mixed` work plus round trips to a second thread (`serve`:
    /// every request hands off between the client, a connection thread
    /// and a worker, and a miss walks the job registry and caches).
    Handoff,
}

impl Kernel {
    /// The kernel's median time on the reference host in a quiet period.
    #[must_use]
    pub fn nominal_ms(self) -> f64 {
        match self {
            Kernel::Mixed => 2.5,
            Kernel::Compute => 1.8,
            Kernel::Handoff => 5.5,
        }
    }
}

const TABLE_WORDS: usize = 1 << 21;
const RANDOM_TOUCHES: u32 = 8_000;
const SORT_KEYS: usize = 16_384;
const MAP_KEYS: usize = 4_096;
const LISTS: usize = 2_048;
const COMPUTE_ROUNDS: u32 = 3;
const HANDOFFS: u64 = 200;

/// The second thread of [`Kernel::Handoff`]: it answers each number
/// sent to it with the next one, and ends when its sender is dropped.
struct Echo {
    to: Sender<u64>,
    from: Receiver<u64>,
    thread: JoinHandle<()>,
}

impl Echo {
    fn start() -> Echo {
        let (to, inbox) = channel::<u64>();
        let (outbox, from) = channel::<u64>();
        let thread = std::thread::spawn(move || {
            while let Ok(v) = inbox.recv() {
                if outbox.send(v + 1).is_err() {
                    break;
                }
            }
        });
        Echo { to, from, thread }
    }

    /// One round trip: `v` there, `v + 1` back.
    fn round_trip(&self, v: u64) -> u64 {
        self.to.send(v).expect("echo thread alive");
        self.from.recv().expect("echo thread alive")
    }

    fn stop(self) {
        drop(self.to);
        let _ = self.thread.join();
    }
}

/// The calibration kernel and the times it took in this run.
pub struct Calibration {
    kernel: Kernel,
    table: Vec<u64>,
    state: u64,
    samples_ms: Vec<f64>,
    echo: Option<Echo>,
}

impl Calibration {
    /// Allocates and touches the kernel's table (empty for
    /// [`Kernel::Compute`]) and starts the echo thread of
    /// [`Kernel::Handoff`].
    #[must_use]
    pub fn new(kernel: Kernel) -> Self {
        let words = if kernel == Kernel::Compute {
            0
        } else {
            TABLE_WORDS
        };
        Calibration {
            kernel,
            table: (0..words as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            state: 0x2545_f491_4f6c_dd1d,
            samples_ms: Vec::new(),
            echo: (kernel == Kernel::Handoff).then(Echo::start),
        }
    }

    /// The kernel this calibration times.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Runs the kernel once; returns and records its time in ms.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x = self.state;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut acc = 0u64;
        let rounds = match self.kernel {
            Kernel::Mixed | Kernel::Handoff => {
                // Memory latency: random read-modify-writes over the table.
                for _ in 0..RANDOM_TOUCHES {
                    let i = (next() as usize) & mask;
                    self.table[i] = self.table[i].wrapping_add(acc | 1);
                    acc = acc.wrapping_add(self.table[(i * 7) & mask]);
                }
                // Memory bandwidth: one sequential pass over the table.
                for w in self.table.chunks_exact_mut(8) {
                    acc = acc.wrapping_add(w[0] ^ w[7]);
                    w[1] = w[1].wrapping_add(acc);
                }
                1
            }
            Kernel::Compute => COMPUTE_ROUNDS,
        };
        // Branchy, allocation-heavy integer work of the kind the
        // workloads do: sort, hash-map churn, small vectors.
        for _ in 0..rounds {
            let mut keys: Vec<u64> = (0..SORT_KEYS).map(|_| next() % 100_000).collect();
            keys.sort_unstable();
            let mut map = std::collections::HashMap::with_capacity(MAP_KEYS);
            for &k in keys.iter().step_by(SORT_KEYS / MAP_KEYS) {
                *map.entry(k).or_insert(0u64) += 1;
            }
            let lists: Vec<Vec<u64>> = (0..LISTS).map(|i| keys[i..i + 16].to_vec()).collect();
            acc = acc.wrapping_add(map.len() as u64 + lists.iter().map(|l| l[3]).sum::<u64>());
        }
        if let Some(echo) = &self.echo {
            for i in 0..HANDOFFS {
                acc = acc.wrapping_add(echo.round_trip(i));
            }
        }
        self.state = std::hint::black_box(acc) | 1;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Median kernel time of this run, ms.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms).unwrap_or(self.kernel.nominal_ms())
    }

    /// Number of kernel runs recorded.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Factor that converts this run's measured times to the reference
    /// host speed: nominal / median kernel time.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.kernel.nominal_ms() / self.median_ms()
    }

    /// The factor for operation `op` of a closed loop whose kernel runs
    /// start at sample `first` (one before the first operation, one
    /// after each): nominal over the median of the four runs around the
    /// operation — the one before the previous operation through the
    /// one after the next. The host's slow spells last seconds, so
    /// neighbouring runs see the same speed; the median shrugs off a
    /// single disturbed kernel run.
    #[must_use]
    pub fn scale_around(&self, first: usize, op: usize) -> f64 {
        let lo = (first + op).saturating_sub(1).max(first);
        let hi = (first + op + 3).min(self.samples_ms.len());
        crate::stats::median(&self.samples_ms[lo.min(hi)..hi])
            .map_or_else(|| self.scale(), |m| self.kernel.nominal_ms() / m)
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        if let Some(echo) = self.echo.take() {
            echo.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_median() {
        for kernel in [Kernel::Mixed, Kernel::Compute, Kernel::Handoff] {
            let mut c = Calibration::new(kernel);
            assert_eq!(c.scale(), 1.0, "no samples: unscaled");
            for _ in 0..3 {
                c.probe();
            }
            assert_eq!(c.samples(), 3);
            assert!((c.scale() - kernel.nominal_ms() / c.median_ms()).abs() < 1e-12);
            assert!(c.median_ms() > 0.0);
        }
    }
}
