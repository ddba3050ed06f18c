// Negative fixture for DV-W004: poison-recovering lock shim and handled
// channel errors. Calling .lock().unwrap() here would be flagged.

struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn drain(state: &Mutex<Vec<u64>>, rx: &std::sync::mpsc::Receiver<u64>) {
    let mut guard = state.lock();
    match rx.recv() {
        Ok(v) => guard.push(v),
        Err(_) => guard.clear(),
    }
    let parsed = "7".parse::<u64>().unwrap();
    guard.push(parsed);
}

// A dv-sim port's recv takes the context: a virtual-time wait, not a channel.
fn first_word(port: &Port, ctx: &SimCtx) -> u64 {
    port.recv(ctx).expect("port closed")
}
