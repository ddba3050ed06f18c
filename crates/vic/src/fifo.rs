//! The surprise-packet FIFO.
//!
//! DV-memory slots hold one word and require sender/receiver coordination;
//! the FIFO is how a VIC receives *unscheduled* messages: arriving packets
//! addressed to it are buffered non-destructively (capacity: "thousands of
//! 8-byte messages") until the host drains them. Ordering across the
//! network is not guaranteed — the queue preserves arrival order at the
//! VIC, which is already a permutation of send order.

use std::collections::VecDeque;

use dv_core::Word;
use dv_sim::{Kernel, Waker};

/// The network-addressable input FIFO of one VIC.
pub struct SurpriseFifo {
    queue: VecDeque<Word>,
    capacity: usize,
    dropped: u64,
    high_water: usize,
    /// The processes parked waiting for an arrival: a plain list, since
    /// the VIC that holds the FIFO is kernel-owned state.
    waiters: Vec<Waker>,
}

impl SurpriseFifo {
    /// FIFO with the given capacity in packets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { queue: VecDeque::new(), capacity, dropped: 0, high_water: 0, waiters: Vec::new() }
    }

    /// Buffer an arriving payload; returns `false` (and counts a drop) on
    /// overflow. The real hardware has finite SRAM for the FIFO; software
    /// that outruns the background drain loses packets.
    pub fn push(&mut self, payload: Word) -> bool {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back(payload);
        self.high_water = self.high_water.max(self.queue.len());
        true
    }

    /// Count a loss without touching the queue: the fault layer forces an
    /// overflow-equivalent rejection of an arriving packet. Keeping the
    /// count here means [`SurpriseFifo::dropped`] stays the single source
    /// of truth for every lost FIFO packet, genuine or injected.
    pub fn force_drop(&mut self) {
        self.dropped += 1;
    }

    /// Pop the oldest buffered payload.
    pub fn pop(&mut self) -> Option<Word> {
        self.queue.pop_front()
    }

    /// Pop up to `max` of the oldest buffered payloads onto the end of
    /// `out`, in arrival order; returns how many moved.
    pub fn drain_into(&mut self, max: usize, out: &mut Vec<Word>) -> usize {
        let n = max.min(self.queue.len());
        out.extend(self.queue.drain(..n));
        n
    }

    /// Buffered packet count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Packets lost to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been (high-water mark).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The wakers of the processes parked waiting for FIFO arrivals
    /// (stale ones included).
    pub fn waiters(&self) -> &[Waker] {
        &self.waiters
    }

    /// Leave `waker` for the next arrival.
    pub fn register(&mut self, waker: Waker) {
        self.waiters.push(waker);
    }

    /// Wake every registered waiter at the kernel's current time, in
    /// registration order.
    pub fn wake_all(&mut self, kernel: &mut Kernel) {
        self.waiters.drain(..).for_each(|w| kernel.wake(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut f = SurpriseFifo::new(10);
        assert!(f.push(100));
        assert!(f.push(200));
        assert!(f.push(300));
        assert_eq!(f.pop(), Some(100));
        assert_eq!(f.pop(), Some(200));
        assert_eq!(f.pop(), Some(300));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut f = SurpriseFifo::new(2);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(!f.push(3));
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.len(), 2);
        // Draining makes room again.
        f.pop();
        assert!(f.push(4));
    }

    #[test]
    fn high_water_tracks_deepest_fill() {
        let mut f = SurpriseFifo::new(8);
        f.push(1);
        f.push(2);
        f.push(3);
        assert_eq!(f.high_water(), 3);
        f.pop();
        f.pop();
        assert_eq!(f.high_water(), 3, "draining must not lower the mark");
        f.push(4);
        assert_eq!(f.high_water(), 3);
        for _ in 0..5 {
            f.push(0);
        }
        assert_eq!(f.high_water(), 7);
    }

    #[test]
    fn non_destructive_unlike_dv_memory() {
        // Two values to the same VIC coexist (the whole point vs a
        // DV-memory slot where the second write destroys the first).
        let mut f = SurpriseFifo::new(8);
        f.push(42);
        f.push(42);
        assert_eq!(f.len(), 2);
    }
}
