//! Machine-speed calibration.
//!
//! A shared machine's speed drifts: on the 2-vCPU VM the baselines were
//! measured on, every workload's time rose and fell together by ±25 %
//! over tens of minutes and by more within seconds, CPU time as much as
//! wall time. While each iteration runs, a sampler thread times a small
//! fixed kernel that does not depend on the program under test, every
//! [`PERIOD`]; the run scales its end-to-end times by [`REFERENCE_S`] over
//! the median sample, so that they read as seconds on a machine where one
//! kernel slice takes [`REFERENCE_S`].
//!
//! The sampler shares the machine with the iteration, so the scaled
//! change equals the raw one only while the program leaves the kernel's
//! time alone. A run therefore samples only beside a workload that leaves
//! a processor free. Injected CPU-bound work moved the kernel by at most
//! 2 %; memory- and allocation-heavy work moved it by up to 8 %
//! (`README.md`, "Machine-speed calibration").

use equitls_obs::rng::SplitMix64;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One kernel slice's time on the reference machine.
pub const REFERENCE_S: f64 = 0.001;

/// Pause between slices: sampling takes about 2 % of one processor.
pub const PERIOD: Duration = Duration::from_millis(50);

/// Run `work` while timing kernel slices beside it. Returns its result
/// and the slice times, in seconds.
pub fn sample_during<T>(work: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let running = AtomicBool::new(true);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while running.load(Ordering::SeqCst) {
                let start = Instant::now();
                black_box(kernel());
                samples.push(start.elapsed().as_secs_f64());
                std::thread::park_timeout(PERIOD);
            }
            samples
        });
        let out = work();
        running.store(false, Ordering::SeqCst);
        sampler.thread().unpark();
        let samples = sampler.join().expect("the sampler does not panic");
        (out, samples)
    })
}

/// Hash-table interning, ordered-set updates and small allocations: the
/// operations term stores and concrete states are made of.
fn kernel() -> u64 {
    let mut rng = SplitMix64::new(0x0CA1_1B4A_7E00_5EED);
    let mut interned: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeSet<u64> = BTreeSet::new();
    let mut acc = 0u64;
    for _ in 0..5_000 {
        let key = rng.next_below(1 << 16);
        let next = interned.len() as u64;
        acc = acc.wrapping_add(*interned.entry(key).or_insert(next));
        ordered.insert(rng.next_below(1 << 15));
        let bytes: Vec<u8> = key.to_le_bytes().repeat(3);
        acc = acc.wrapping_add(u64::from(bytes[(key % 24) as usize]));
    }
    acc.wrapping_add(ordered.len() as u64)
}
