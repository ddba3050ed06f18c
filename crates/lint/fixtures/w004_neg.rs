// Negative fixture for DV-W004: dv-core's poison-recovering lock, whose
// lock() returns the guard; std::sync::Mutex named in prose is fine.
use dv_core::sync::Mutex;

fn drain(state: &Mutex<Vec<u64>>, incoming: &[u64]) -> usize {
    let mut guard = state.lock();
    guard.extend_from_slice(incoming);
    guard.len()
}
