//! Extrae-style execution tracing.
//!
//! Figure 5 of the paper shows an Extrae/Paraver trace of the MPI GUPS run:
//! per-node timelines colored by state (computation vs MPI calls) with
//! message arrows between nodes. This module records the same information
//! from simulated runs — per-node *state spans* in virtual time plus
//! *message events* — and can render a coarse ASCII timeline or dump a
//! machine-readable text trace.
//!
//! The tracer is shared (`Arc<Tracer>`) by all simulated node processes and
//! is internally synchronized; a disabled tracer costs one atomic load per
//! record call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::sync::Mutex;

use crate::time::Time;
use crate::NodeId;

/// What a node is doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// Application computation.
    Compute,
    /// Inside an MPI (or DV API) send.
    Send,
    /// Inside a blocking receive.
    Recv,
    /// Waiting (group counter, request completion).
    Wait,
    /// Inside a barrier.
    Barrier,
    /// Inside a collective other than barrier.
    Collective,
    /// Doing nothing.
    Idle,
}

impl State {
    /// Every state, in declaration order.
    pub const ALL: [State; 7] = [
        State::Compute,
        State::Send,
        State::Recv,
        State::Wait,
        State::Barrier,
        State::Collective,
        State::Idle,
    ];

    /// One-character glyph for ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            State::Compute => '#',
            State::Send => 's',
            State::Recv => 'r',
            State::Wait => '.',
            State::Barrier => 'B',
            State::Collective => 'c',
            State::Idle => ' ',
        }
    }

    /// Stable name, identical to the `Debug` form (used by [`Tracer::dump`]
    /// and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            State::Compute => "Compute",
            State::Send => "Send",
            State::Recv => "Recv",
            State::Wait => "Wait",
            State::Barrier => "Barrier",
            State::Collective => "Collective",
            State::Idle => "Idle",
        }
    }

    /// Inverse of [`State::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<State> {
        State::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One state span on one node's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Node the span belongs to.
    pub node: NodeId,
    /// Span start (virtual time).
    pub start: Time,
    /// Span end (virtual time, exclusive).
    pub end: Time,
    /// The recorded state.
    pub state: State,
}

/// One message between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEvent {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Virtual time the message left the source.
    pub sent: Time,
    /// Virtual time the message became visible at the destination.
    pub recv: Time,
    /// Message size in bytes.
    pub bytes: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    messages: Vec<MessageEvent>,
}

/// Trace recorder. Cheap when disabled.
pub struct Tracer {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer that records everything.
    pub fn enabled() -> Self {
        Self { enabled: AtomicBool::new(true), inner: Mutex::new(Inner::default()) }
    }

    /// A tracer that drops everything (one atomic load per call).
    pub fn disabled() -> Self {
        Self { enabled: AtomicBool::new(false), inner: Mutex::new(Inner::default()) }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a state span; zero-length spans are dropped.
    pub fn span(&self, node: NodeId, state: State, start: Time, end: Time) {
        if !self.is_enabled() || end <= start {
            return;
        }
        self.inner.lock().spans.push(Span { node, start, end, state });
    }

    /// Record a message event.
    pub fn message(&self, src: NodeId, dst: NodeId, sent: Time, recv: Time, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().messages.push(MessageEvent { src, dst, sent, recv, bytes });
    }

    /// Copy out all spans (sorted by start time).
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.inner.lock().spans.clone();
        v.sort_by_key(|s| (s.start, s.node));
        v
    }

    /// Copy out all messages (sorted by send time).
    pub fn messages(&self) -> Vec<MessageEvent> {
        let mut v = self.inner.lock().messages.clone();
        v.sort_by_key(|m| (m.sent, m.src));
        v
    }

    /// Render an ASCII timeline: one row per node, `width` columns spanning
    /// `[t0, t1]`; each cell shows the glyph of the state that covered the
    /// most virtual time in that cell. Mirrors the look of Figure 5
    /// ("blue represents computation, ... the other colors represent MPI
    /// functions") in plain text.
    ///
    /// A degenerate explicit window (`t1 <= t0`) yields an empty timeline
    /// (header plus blank rows) instead of underflowing the `Time`
    /// subtraction.
    pub fn render_ascii(&self, nodes: usize, width: usize, window: Option<(Time, Time)>) -> String {
        let spans = self.spans();
        let (t0, t1) = match window {
            Some((a, b)) if b <= a => (a, a), // degenerate: render empty rows
            Some(w) => w,
            None => {
                let lo = spans.iter().map(|s| s.start).min().unwrap_or(0);
                let hi = spans.iter().map(|s| s.end).max().unwrap_or(1);
                (lo, hi.max(lo + 1))
            }
        };
        let width = width.max(1);
        let cell = ((t1.saturating_sub(t0)) as f64 / width as f64).max(1.0);

        // Per node, per cell, accumulate time per state.
        let mut grid = vec![vec![[0u64; 7]; width]; nodes];
        let state_idx = |s: State| match s {
            State::Compute => 0,
            State::Send => 1,
            State::Recv => 2,
            State::Wait => 3,
            State::Barrier => 4,
            State::Collective => 5,
            State::Idle => 6,
        };
        let glyphs = ['#', 's', 'r', '.', 'B', 'c', ' '];
        #[allow(clippy::needless_range_loop)] // c indexes both time math and grid
        for s in &spans {
            if t1 <= t0 || s.node >= nodes || s.end <= t0 || s.start >= t1 {
                continue;
            }
            let a = s.start.max(t0);
            let b = s.end.min(t1);
            let ca = ((a - t0) as f64 / cell) as usize;
            let cb = (((b - t0) as f64 / cell).ceil() as usize).min(width);
            for c in ca..cb.max(ca + 1).min(width) {
                let cell_lo = t0 + (c as f64 * cell) as Time;
                let cell_hi = t0 + ((c + 1) as f64 * cell) as Time;
                let overlap = b.min(cell_hi).saturating_sub(a.max(cell_lo));
                grid[s.node][c][state_idx(s.state)] += overlap.max(1);
            }
        }

        let mut out = String::new();
        let _ = writeln!(
            out,
            "time window: [{:.3} us, {:.3} us]   legend: #=compute s=send r=recv .=wait B=barrier c=collective",
            crate::time::as_us_f64(t0),
            crate::time::as_us_f64(t1)
        );
        for (node, row) in grid.iter().enumerate() {
            let _ = write!(out, "node {node:>3} |");
            for cellstates in row {
                let (best, besttime) =
                    cellstates.iter().enumerate().max_by_key(|(_, &t)| t).unwrap();
                out.push(if *besttime == 0 { ' ' } else { glyphs[best] });
            }
            out.push_str("|\n");
        }
        out
    }

    /// Total virtual time per `(node, state)` across all recorded spans.
    /// Feeds the `trace.state_ps` metric (per-node time-in-state totals,
    /// the numbers behind a Figure 5-style breakdown).
    pub fn state_totals(&self) -> std::collections::BTreeMap<(NodeId, State), Time> {
        let mut totals = std::collections::BTreeMap::new();
        for s in self.inner.lock().spans.iter() {
            *totals.entry((s.node, s.state)).or_insert(0) += s.end - s.start;
        }
        totals
    }

    /// Dump a machine-readable text trace: `S node start end state` lines
    /// followed by `M src dst sent recv bytes` lines (times in ps). The
    /// format is a deliberately simple cousin of Paraver's `.prv`, and
    /// [`Tracer::parse`] reads it back.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(out, "S {} {} {} {:?}", s.node, s.start, s.end, s.state);
        }
        for m in self.messages() {
            let _ = writeln!(out, "M {} {} {} {} {}", m.src, m.dst, m.sent, m.recv, m.bytes);
        }
        out
    }

    /// Rebuild a tracer from [`Tracer::dump`] output, so traces can be
    /// saved to disk, reloaded, and diffed (`dv-report` uses this to render
    /// timelines out of `BENCH_*.json` artifacts). Blank lines are skipped;
    /// anything else malformed is an error naming the offending line.
    pub fn parse(text: &str) -> Result<Tracer, String> {
        let tracer = Tracer::enabled();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| format!("trace line {}: {what}: {line:?}", lineno + 1);
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields.as_slice() {
                ["S", node, start, end, state] => {
                    let node = node.parse().map_err(|_| bad("bad node"))?;
                    let start = start.parse().map_err(|_| bad("bad start time"))?;
                    let end = end.parse().map_err(|_| bad("bad end time"))?;
                    let state =
                        State::from_name(state).ok_or_else(|| bad("unknown state"))?;
                    if end <= start {
                        return Err(bad("span must have end > start"));
                    }
                    tracer.span(node, state, start, end);
                }
                ["M", src, dst, sent, recv, bytes] => {
                    let src = src.parse().map_err(|_| bad("bad src"))?;
                    let dst = dst.parse().map_err(|_| bad("bad dst"))?;
                    let sent = sent.parse().map_err(|_| bad("bad sent time"))?;
                    let recv = recv.parse().map_err(|_| bad("bad recv time"))?;
                    let bytes = bytes.parse().map_err(|_| bad("bad byte count"))?;
                    tracer.message(src, dst, sent, recv, bytes);
                }
                _ => return Err(bad("unrecognized record")),
            }
        }
        Ok(tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span(0, State::Compute, 0, us(1));
        t.message(0, 1, 0, us(1), 64);
        assert!(t.spans().is_empty());
        assert!(t.messages().is_empty());
    }

    #[test]
    fn spans_sorted_and_zero_length_dropped() {
        let t = Tracer::enabled();
        t.span(1, State::Send, us(5), us(6));
        t.span(0, State::Compute, us(1), us(2));
        t.span(0, State::Idle, us(3), us(3)); // zero length
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].node, 0);
        assert_eq!(spans[1].state, State::Send);
    }

    #[test]
    fn ascii_render_shows_dominant_state() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, us(10));
        t.span(1, State::Barrier, 0, us(10));
        let art = t.render_ascii(2, 20, None);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 nodes
        assert!(lines[1].contains('#'), "{art}");
        assert!(lines[2].contains('B'), "{art}");
    }

    #[test]
    fn ascii_render_respects_window() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, us(1));
        t.span(0, State::Send, us(9), us(10));
        // Window over only the send part.
        let art = t.render_ascii(1, 10, Some((us(8), us(10))));
        assert!(art.lines().nth(1).unwrap().contains('s'));
        assert!(!art.lines().nth(1).unwrap().contains('#'));
    }

    #[test]
    fn dump_round_trips_counts() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, 100);
        t.span(1, State::Recv, 50, 80);
        t.message(0, 1, 10, 60, 16);
        let text = t.dump();
        assert_eq!(text.lines().filter(|l| l.starts_with('S')).count(), 2);
        assert_eq!(text.lines().filter(|l| l.starts_with('M')).count(), 1);
    }

    #[test]
    fn ascii_render_survives_reversed_window() {
        // Regression: a reversed or zero-width window used to underflow
        // the unsigned `t1 - t0` subtraction and panic in debug builds.
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, us(10));
        for window in [(us(10), us(2)), (us(5), us(5))] {
            let art = t.render_ascii(1, 10, Some(window));
            let row = art.lines().nth(1).unwrap();
            let timeline = row.split('|').nth(1).unwrap();
            assert!(
                timeline.chars().all(|c| c == ' '),
                "degenerate window must render an empty timeline: {art}"
            );
        }
    }

    #[test]
    fn dump_parse_round_trips_exactly() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, us(2));
        t.span(1, State::Barrier, us(1), us(3));
        t.span(0, State::Wait, us(2), us(4));
        t.message(0, 1, us(1), us(2), 4096);
        t.message(1, 0, us(3), us(4), 8);
        let text = t.dump();
        let back = Tracer::parse(&text).expect("dump output must parse");
        assert_eq!(back.spans(), t.spans());
        assert_eq!(back.messages(), t.messages());
        // And the round trip is a fixed point at the text level too.
        assert_eq!(back.dump(), text);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "S 0 0",                  // too few fields
            "S 0 0 100 Napping",      // unknown state
            "S 0 100 100 Compute",    // zero-length span
            "M 0 1 5 6",              // too few fields
            "M 0 1 5 6 seven",        // non-numeric bytes
            "X 0 1 2 3",              // unknown record type
        ] {
            assert!(Tracer::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Blank lines are fine.
        assert!(Tracer::parse("\n\nS 0 0 100 Compute\n\n").is_ok());
    }

    #[test]
    fn state_totals_sum_spans_per_node_and_state() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, 100);
        t.span(0, State::Compute, 300, 450);
        t.span(0, State::Send, 100, 130);
        t.span(2, State::Compute, 0, 10);
        let totals = t.state_totals();
        assert_eq!(totals[&(0, State::Compute)], 250);
        assert_eq!(totals[&(0, State::Send)], 30);
        assert_eq!(totals[&(2, State::Compute)], 10);
        assert_eq!(totals.len(), 3);
    }

    #[test]
    fn state_names_round_trip() {
        for s in State::ALL {
            assert_eq!(State::from_name(s.name()), Some(s));
            assert_eq!(format!("{s:?}"), s.name());
        }
        assert_eq!(State::from_name("Napping"), None);
    }

    #[test]
    fn glyphs_are_unique() {
        let all = [
            State::Compute,
            State::Send,
            State::Recv,
            State::Wait,
            State::Barrier,
            State::Collective,
            State::Idle,
        ];
        let mut glyphs: Vec<char> = all.iter().map(|s| s.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), all.len());
    }
}
