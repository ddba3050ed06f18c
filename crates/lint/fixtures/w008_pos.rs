//! DV-W008 positive: a raw OS thread started outside the scheduler.
fn run_worker() {
    let handle = std::thread::spawn(step);
    handle.join().ok();
}

fn step() {}
