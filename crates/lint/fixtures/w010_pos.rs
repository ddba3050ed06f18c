//! DV-W010 positive: host-blocking waits inside virtual-time code.
use std::sync::mpsc::Receiver;
use std::time::Duration;

fn wait_for_data(rx: &Receiver<u64>) -> Option<u64> {
    std::thread::sleep(Duration::from_millis(1));
    std::thread::yield_now();
    std::thread::park();
    rx.recv_timeout(Duration::from_millis(5)).ok()
}
