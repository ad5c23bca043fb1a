//! The open-loop arrival schedule: a seeded Poisson process.
//!
//! Independent users make a Poisson stream, and an open loop sends on the
//! schedule whether or not the system keeps up.  The schedule is a pure
//! function of `(seed, rate, count)`, generated before the run; the program
//! under test sees only the resulting sends.

use wcq_harness::DetRng;

/// Due times, in ns from the start of the timed section, of `count` arrivals
/// of a Poisson process with `rate_per_s` events per second.  Ascending.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut rng = DetRng::new(seed);
    let mut due = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        // Uniform in (0, 1]: the 53 high bits, shifted off zero so ln() is
        // finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() * mean_gap_ns;
        due.push(t as u64);
    }
    due
}
