//! FNV-1a, the one hash behind every determinism digest: the scheduler's
//! event-trace hash (`dv_sim::OrderAudit`), [`crate::metrics::MetricsSnapshot::fnv_hash`]
//! and the `dv-events-v1` end record's hash over sample lines.

/// A running 64-bit FNV-1a hash; [`Fnv1a::default`] is the empty input's.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold in `bytes`, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in the eight little-endian bytes of `word`.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}
