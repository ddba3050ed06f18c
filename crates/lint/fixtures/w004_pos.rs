// Positive fixture for DV-W004: std locks and host channels in a
// simulation hot path, where a poisoned lock or a closed channel panics
// every process and buries the first error.
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Mutex, RwLock};

fn drain(state: &Mutex<Vec<u64>>, rx: &Receiver<u64>, tx: &Sender<u64>) {
    let mut guard = state.lock().unwrap();
    guard.push(rx.recv().expect("peer hung up"));
    tx.send(guard.len() as u64).unwrap();
}

fn peek(table: &RwLock<Vec<u64>>) -> usize {
    table.read().unwrap().len()
}
