//! A fixed reference computation that measures how fast the host runs
//! right now.
//!
//! A shared host drifts: over minutes, the same call can take half again
//! as long, on every core at once. The benchmark times this kernel before
//! every mining call and scales the run's wall times by how far the
//! kernel's median strayed from its nominal time. The kernel is the
//! benchmark's own code, so a change to the miners never moves it: a
//! faster miner still reads faster, while a slower host no longer reads
//! as a slower miner. One kernel run is too short to say how fast the
//! host ran during the call after it, so the scale is taken over the
//! whole run.
//!
//! The kernel mixes the two access patterns that dominate mining: random
//! increments into a counter table a little larger than L2 (hash-tree
//! counting) and a branchy merge of two sorted lists (tidset
//! intersection).

use std::hint::black_box;
use std::time::Instant;

/// Counters in the table: 4 MiB of `u32`.
const TABLE: usize = 1 << 20;
/// Random increments per kernel run.
const PROBES: usize = 60_000;
/// Length of each sorted list the merge walks.
const LIST: usize = 40_000;
/// Kernel runs per measurement; the fastest counts, so an interrupt
/// inside one run does not read as a slow host.
const REPS: usize = 3;

/// Nominal seconds of one kernel run. A scaled time reads as the seconds
/// the call would take on a host that runs the kernel in exactly this
/// long; a 2.1 GHz Intel Xeon vCPU takes 0.85-0.95 ms.
pub const NOMINAL_S: f64 = 0.001;

/// The reference kernel's working set.
pub struct Reference {
    table: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    state: u64,
}

impl Reference {
    /// Builds the working set.
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut sorted = |step: u64| {
            let mut v = 0u32;
            (0..LIST)
                .map(|_| {
                    state = lcg(state);
                    v += 1 + ((state >> 33) % step) as u32;
                    v
                })
                .collect::<Vec<u32>>()
        };
        let (a, b) = (sorted(4), sorted(4));
        Reference {
            table: vec![0; TABLE],
            a,
            b,
            state,
        }
    }

    /// One kernel run.
    fn kernel(&mut self) -> u64 {
        let mut s = self.state;
        for _ in 0..PROBES {
            s = lcg(s);
            self.table[(s >> 40) as usize & (TABLE - 1)] += 1;
        }
        self.state = s;
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        let (mut i, mut j, mut common) = (0, 0, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        common + u64::from(self.table[(s as usize) & (TABLE - 1)])
    }

    /// Seconds of one kernel run now: the fastest of [`REPS`].
    pub fn secs(&mut self) -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(self.kernel());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}
