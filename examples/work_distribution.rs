//! Work distribution over a task pool of unbounded channels.
//!
//! Two frontends send request ids into a hi- and a lo-priority lane; three
//! workers drain both lanes through one parked `wcq::recv_any_timeout` wait
//! (hi first, in slice order), do a little work per request and forward the
//! id to a collector.  Dropping the endpoints closes everything: a worker
//! sees `Closed` only once both lanes are closed *and* drained, and the
//! collector asserts that every id arrived exactly once.
//!
//! Run with:
//! ```text
//! cargo run --release --example work_distribution
//! ```

use std::time::Duration;

use wcq::RecvTimeoutError;

const FRONTENDS: usize = 2;
const WORKERS: usize = 3;
const REQUESTS: u64 = 40_000;

fn main() {
    // Each endpoint registers on first use: frontends plus workers per lane.
    let lanes = wcq::builder().threads(FRONTENDS + WORKERS);
    let (hi_tx, hi_rx) = lanes.clone().build_channel::<u64>();
    let (lo_tx, lo_rx) = lanes.build_channel::<u64>();
    let (done_tx, mut done_rx) = wcq::builder().threads(WORKERS + 1).build_channel();

    // Every thread returns how many of its waits timed out.
    let mut threads = Vec::new();
    for f in 0..FRONTENDS as u64 {
        let (mut hi, mut lo) = (hi_tx.clone(), lo_tx.clone());
        threads.push(std::thread::spawn(move || {
            for id in (f..REQUESTS).step_by(FRONTENDS) {
                let lane = if id % 8 == 0 { &mut hi } else { &mut lo }; // every 8th is urgent
                lane.send(id).expect("the workers outlive the frontends");
            }
            0
        }));
    }
    for _ in 0..WORKERS {
        let (mut hi, mut lo, mut done) = (hi_rx.clone(), lo_rx.clone(), done_tx.clone());
        threads.push(std::thread::spawn(move || {
            let mut timeouts = 0u64;
            loop {
                match wcq::recv_any_timeout(&mut [&mut hi, &mut lo], Duration::from_millis(1)) {
                    Ok((lane, id)) => {
                        std::hint::black_box((0..id % 256).sum::<u64>()); // the "work"
                        done.send((lane, id)).expect("the collector is alive");
                    }
                    Err(RecvTimeoutError::Timeout) => timeouts += 1,
                    Err(RecvTimeoutError::Closed) => return timeouts,
                }
            }
        }));
    }
    // Only the threads' clones are left, so their drops close every channel.
    drop((hi_tx, lo_tx, hi_rx, lo_rx, done_tx));

    let (mut seen, mut via_hi) = (vec![false; REQUESTS as usize], 0);
    for (lane, id) in &mut done_rx {
        let twice = std::mem::replace(&mut seen[id as usize], true);
        assert!(!twice, "request {id} arrived twice");
        via_hi += u64::from(lane == 0);
    }
    assert!(seen.iter().all(|&s| s), "a request was lost");
    let timeouts: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    println!("{REQUESTS} requests exactly once, {via_hi} via hi; {timeouts} waits timed out");
}
