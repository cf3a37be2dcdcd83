//! The host: its fingerprint, printed with every result (absolute
//! numbers only compare between runs on the same machine and
//! toolchain), and its pace, which every reported time is scaled by.

use std::process::Command;
use std::time::Instant;

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `cpu=… nproc=… rustc=… rev=…`, with `unknown` for anything the host
/// cannot tell. The revision is read only from a `.git` in the working
/// directory, never from a repository above it.
#[must_use]
pub fn fingerprint() -> String {
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let unknown = || "unknown".to_string();
    format!(
        "cpu={:?} nproc={nproc} rustc={:?} rev={}",
        cpu_model().unwrap_or_else(unknown),
        command_output("rustc", &["--version"]).unwrap_or_else(unknown),
        rev.unwrap_or_else(unknown),
    )
}

/// The reference kernel's typical time on a shared 2-core Intel Xeon
/// virtual machine, ms per thread: [`Pace::factor`] scales a run's times
/// to a host whose reference reads this.
pub const REFERENCE_NOMINAL_MS: f64 = 15.5;

/// The host's pace: the wall time of a fixed reference kernel, run once
/// on each of two threads at the same time (the workloads keep both
/// cores busy), in ms per thread.
///
/// On a shared virtual machine the host's speed drifts by 20–50 % over
/// seconds and minutes, with no CPU time stolen: other guests contend
/// for the cores' shared resources. The drift slows allocation-heavy,
/// branchy code such as the GED searches and solvers far more than it
/// slows tight arithmetic loops, so the kernel churns small heap
/// allocations and takes data-dependent branches over a small table.
/// On a 2-core host, averaged over a few seconds, its time tracked that
/// of 2-thread GEDGW batches with a correlation of about 0.9. It calls
/// nothing of the program under test, so a change to the program moves
/// a figure and not the reference.
#[must_use]
pub fn reference_ms() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (1..=2u64)
            .map(|seed| {
                s.spawn(move || {
                    let start = Instant::now();
                    std::hint::black_box(churn(seed, 125_000));
                    std::hint::black_box(branches(seed, 1_000_000));
                    start.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Allocates `steps` vectors of 1–64 `u64`s, keeping up to 32 alive and
/// dropping a pseudo-random one when full.
fn churn(seed: u64, steps: u64) -> usize {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(33);
    let mut sum = 0;
    for _ in 0..steps {
        let v = vec![xorshift(&mut x); (x % 64) as usize + 1];
        sum += v.len();
        live.push(v);
        if live.len() > 32 {
            live.swap_remove(((x >> 8) % 32) as usize);
        }
    }
    sum
}

/// `steps` pseudo-random, data-dependent branches over a 32 KiB table.
fn branches(seed: u64, steps: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut table = vec![0u64; 4096];
    let mut acc = 0;
    for _ in 0..steps {
        let v = xorshift(&mut x);
        let i = (v as usize) & 4095;
        if v & 1 == 0 {
            table[i] += 3;
        } else if v & 2 == 0 {
            acc ^= table[i];
        } else {
            table[(i * 7) & 4095] = acc;
        }
    }
    acc
}

/// Readings of the host's pace over one run, taken between stretches
/// of timed work, never inside one. A time measured in a stretch is
/// reported at the nominal pace: multiplied by [`Pace::factor`] of the
/// reading before the stretch.
#[derive(Default)]
pub struct Pace {
    readings: Vec<f64>,
}

impl Pace {
    /// Takes one reading. Returns its index, which names the stretch of
    /// work that follows it.
    pub fn read(&mut self) -> usize {
        self.readings.push(reference_ms());
        self.readings.len() - 1
    }

    /// `REFERENCE_NOMINAL_MS` over the host's pace during the stretch
    /// after reading `i`: the median of the two readings before that
    /// stretch and the two after it (fewer at either end of the run). A
    /// single reading is noisy; four a stretch apart follow the drift
    /// over seconds. Panics when reading `i` was never taken.
    #[must_use]
    pub fn factor(&self, i: usize) -> f64 {
        assert!(i < self.readings.len(), "no reading {i}");
        let around = &self.readings[i.saturating_sub(1)..(i + 3).min(self.readings.len())];
        REFERENCE_NOMINAL_MS / crate::stats::median(around)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_median_around_a_stretch() {
        let pace = Pace {
            readings: vec![10.0, 40.0, 20.0, 30.0, 5.0, 5.0],
        };
        // Stretch after reading 2: readings 1..=4 are 40, 20, 30, 5;
        // the nearest-rank median of four is the second smallest.
        assert_eq!(pace.factor(2), REFERENCE_NOMINAL_MS / 20.0);
        // At the ends the window is cut short.
        assert_eq!(pace.factor(0), REFERENCE_NOMINAL_MS / 20.0);
        assert_eq!(pace.factor(5), REFERENCE_NOMINAL_MS / 5.0);
    }
}
