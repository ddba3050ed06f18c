//! Group counters.
//!
//! A group counter "provides a means of counting how many data words within
//! a particular transfer are yet to be received" (Section II): software
//! presets it to the expected word count, arriving packets that name it
//! decrement it, and an API call waits until it reaches zero or a timeout
//! expires.
//!
//! The model deliberately reproduces the *race* the paper warns about: a
//! remote "set group counter" control packet can arrive **after** the first
//! data packet, in which case the set overwrites the early decrements and
//! the counter never reaches zero — the waiting side times out, exactly as
//! on the real hardware.

use dv_sim::{Kernel, Waker};

/// One hardware group counter.
#[derive(Default)]
pub struct GroupCounter {
    /// Signed so that decrement-before-set is observable (and wrong), as
    /// on the real VIC.
    value: i64,
    /// The processes parked on this counter: a plain list, since the VIC
    /// that holds it is kernel-owned state.
    waiters: Vec<Waker>,
}

impl GroupCounter {
    /// Counter in its reset state (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Preset the expected number of packets. Overwrites the current value
    /// unconditionally — including any decrements that raced ahead.
    pub fn set(&mut self, expected: u64) {
        #[expect(clippy::cast_possible_wrap, reason = "a packet count, far below 2^63")]
        let expected = expected as i64;
        self.value = expected;
        // A set to zero satisfies waiters immediately; the VIC wakes
        // them (`wake_all`).
    }

    /// Decrement on packet arrival.
    pub fn decrement(&mut self) {
        self.value -= 1;
    }

    /// Decrement by a whole batch of arrivals at once (the simulator's
    /// bulk-delivery fast path; semantically identical to `n` packets).
    pub fn decrement_by(&mut self, n: u64) {
        #[expect(clippy::cast_possible_wrap, reason = "a batch's packet count, far below 2^63")]
        let n = n as i64;
        self.value -= n;
    }

    /// Current value (negative when packets outran the preset).
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Zero test used by the wait API. Note: *exactly* zero — an overshoot
    /// (negative value) does not satisfy the wait, mirroring the hardware
    /// failure mode the paper describes.
    pub fn is_zero(&self) -> bool {
        self.value == 0
    }

    /// The wakers of the processes parked on this counter (stale ones
    /// included).
    pub fn waiters(&self) -> &[Waker] {
        &self.waiters
    }

    /// Leave `waker` for the counter's next wake-up.
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
    fn set_then_decrement_reaches_zero() {
        let mut gc = GroupCounter::new();
        gc.set(3);
        assert!(!gc.is_zero());
        gc.decrement();
        gc.decrement();
        gc.decrement();
        assert!(gc.is_zero());
        assert_eq!(gc.value(), 0);
    }

    #[test]
    fn decrement_before_set_never_reaches_zero() {
        // The race from Section III: data packet beats the "set" control
        // packet. The set erases the early decrement, so after all packets
        // arrive the counter sits at +1 forever.
        let mut gc = GroupCounter::new();
        gc.decrement(); // early data packet: value = -1
        gc.set(3); // control packet arrives late: value = 3
        gc.decrement();
        gc.decrement(); // the remaining 2 of 3 packets
        assert_eq!(gc.value(), 1);
        assert!(!gc.is_zero());
    }

    #[test]
    fn overshoot_is_not_zero() {
        let mut gc = GroupCounter::new();
        gc.set(1);
        gc.decrement();
        gc.decrement(); // stray packet
        assert_eq!(gc.value(), -1);
        assert!(!gc.is_zero());
    }

    #[test]
    fn reset_state_is_zero() {
        assert!(GroupCounter::new().is_zero());
    }
}
