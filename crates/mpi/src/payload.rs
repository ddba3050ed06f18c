//! Typed message payloads.
//!
//! Simulated messages carry *real data* — the kernels and applications on
//! top of this runtime compute real answers. A small closed set of typed
//! vectors avoids both serialization overhead and `Box<dyn Any>` downcast
//! churn in the hot path.

/// The data carried by one message.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// No data (control messages, barrier tokens).
    Empty,
    /// 64-bit words (GUPS updates, graph vertex ids).
    U64(Vec<u64>),
    /// Doubles (stencil halos, reductions).
    F64(Vec<f64>),
    /// Interleaved complex numbers `[re0, im0, re1, im1, ...]` (FFT rows).
    C64(Vec<f64>),
}

impl Payload {
    /// Wire size in bytes.
    pub fn len_bytes(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::U64(v) => 8 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::C64(v) => 8 * v.len() as u64,
        }
    }

    /// Number of elements of the carried type.
    pub fn len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::U64(v) => v.len(),
            Payload::F64(v) => v.len(),
            Payload::C64(v) => v.len() / 2,
        }
    }

    /// True when the payload carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len_bytes() == 0
    }

    /// Unwrap as u64 words.
    ///
    /// # Panics
    /// Panics when the payload has a different type — a protocol bug.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Unwrap as doubles.
    ///
    /// # Panics
    /// Panics on type mismatch.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwrap as interleaved complex values.
    ///
    /// # Panics
    /// Panics on type mismatch.
    pub fn into_c64(self) -> Vec<f64> {
        match self {
            Payload::C64(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected C64 payload, got {other:?}"),
        }
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        Payload::U64(v)
    }
}
impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_element_times_width() {
        assert_eq!(Payload::Empty.len_bytes(), 0);
        assert_eq!(Payload::U64(vec![0; 10]).len_bytes(), 80);
        assert_eq!(Payload::F64(vec![0.0; 10]).len_bytes(), 80);
        assert_eq!(Payload::C64(vec![0.0; 10]).len(), 5);
    }

    #[test]
    fn unwrap_round_trips() {
        assert_eq!(Payload::from(vec![1u64, 2]).into_u64(), vec![1, 2]);
        assert_eq!(Payload::from(vec![1.5f64]).into_f64(), vec![1.5]);
        assert_eq!(Payload::Empty.into_u64(), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn type_confusion_panics() {
        let _ = Payload::F64(vec![1.0]).into_u64();
    }
}
