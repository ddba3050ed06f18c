//! The cylindrical Data Vortex topology.
//!
//! A switching node is addressed by cylindrical coordinates `(c, h, a)`:
//! cylinder (radius / routing level, 0 = outermost), height, and rotation
//! angle. With `H` heights and `A` angles per cylinder there are
//! `C = log2(H) + 1` cylinders and `A × H` input/output ports, giving
//! `A × H × C` switching nodes — the `N_t log2(N_t)` scaling of Section II.
//!
//! Routing matches one height bit per cylinder, most-significant first:
//! a packet in cylinder `c` whose current height agrees with the
//! destination height in bit `c` *descends* (normal path: same height, next
//! angle, inner cylinder); otherwise it stays in the cylinder on the
//! *deflection path*, which toggles height bit `c` (preserving the already
//! matched bits 0..c-1) and advances one angle. In the innermost cylinder
//! the height equals the destination height and the packet circles to its
//! output angle.

/// Static description of a Data Vortex switch.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Nodes along each cylinder's height (must be a power of two).
    pub height: usize,
    /// Nodes along each cylinder's circumference.
    pub angles: usize,
}

impl Topology {
    /// Build a topology; `height` must be a power of two and `angles ≥ 1`.
    pub fn new(height: usize, angles: usize) -> Self {
        assert!(height.is_power_of_two() && height >= 2, "height must be a power of two ≥ 2");
        assert!(angles >= 1);
        Self { height, angles }
    }

    /// Topology with exactly `ports` ports, growing height (the scaling
    /// rule of Section IX: doubling nodes adds one cylinder).
    ///
    /// Panics unless `ports == angles × 2^k` for some `k ≥ 1`: a Data
    /// Vortex switch has no in-between sizes, and silently rounding up
    /// (the old behavior) skewed every per-port figure computed against
    /// the *requested* count — `for_ports(48, 4)` used to hand back a
    /// 64-port switch.
    pub fn for_ports(ports: usize, angles: usize) -> Self {
        assert!(angles >= 1 && ports >= 2 * angles, "need ports >= 2 x angles");
        let h = ports / angles;
        assert!(
            h * angles == ports && h.is_power_of_two(),
            "no exact Data Vortex topology with {ports} ports at {angles} angles \
             (ports must be angles x a power of two); nearest sizes are \
             {} and {}",
            angles * (h + 1).next_power_of_two() / 2,
            angles * h.next_power_of_two().max(2),
        );
        Self::new(h, angles)
    }

    /// log2(height): number of height bits to match.
    pub fn height_bits(&self) -> u32 {
        self.height.trailing_zeros()
    }

    /// Number of cylinders, `C = log2(H) + 1`.
    pub fn cylinders(&self) -> usize {
        self.height_bits() as usize + 1
    }

    /// Number of input/output ports, `A × H`.
    pub fn ports(&self) -> usize {
        self.angles * self.height
    }

    /// Number of switching nodes, `A × H × C`.
    pub fn nodes(&self) -> usize {
        self.ports() * self.cylinders()
    }

    /// Map a port index to its fixed `(height, angle)` position.
    pub fn port_position(&self, port: usize) -> (usize, usize) {
        debug_assert!(port < self.ports());
        (port % self.height, port / self.height)
    }

    /// Inverse of [`Topology::port_position`].
    pub fn position_port(&self, h: usize, a: usize) -> usize {
        debug_assert!(h < self.height && a < self.angles);
        a * self.height + h
    }

    /// The height-bit mask examined in cylinder `c` (MSB-first).
    pub fn height_mask(&self, c: usize) -> usize {
        debug_assert!(c < self.cylinders() - 1, "innermost cylinder matches no bit");
        1 << (self.height_bits() as usize - 1 - c)
    }

    /// Does a packet bound for `dest_h` descend from cylinder `c` at
    /// height `h`? (True when height bit `c` already matches.)
    pub fn bit_matches(&self, c: usize, h: usize, dest_h: usize) -> bool {
        let m = self.height_mask(c);
        (h & m) == (dest_h & m)
    }

    /// Deflection-path height: toggle the bit under scrutiny, preserving
    /// the already matched more-significant bits.
    pub fn deflect_height(&self, c: usize, h: usize) -> usize {
        h ^ self.height_mask(c)
    }

    /// Hops of the shortest (contention-free) route from injection at
    /// `(h_src, a_src)` to ejection at `(h_dst, a_dst)`.
    ///
    /// Per cylinder the packet spends 1 hop if the bit matches and 2 if it
    /// must deflect once, then circles the innermost cylinder to the output
    /// angle. Every hop advances the angle by one.
    pub fn min_hops(&self, src_port: usize, dst_port: usize) -> usize {
        let (h_src, a_src) = self.port_position(src_port);
        let (h_dst, a_dst) = self.port_position(dst_port);
        let mut h = h_src;
        let mut hops = 0usize;
        for c in 0..self.cylinders() - 1 {
            if !self.bit_matches(c, h, h_dst) {
                h = self.deflect_height(c, h);
                hops += 1;
            }
            hops += 1; // descend
        }
        debug_assert_eq!(h, h_dst);
        // Circle the innermost cylinder to the destination angle.
        let a_now = (a_src + hops) % self.angles;
        hops += (a_dst + self.angles - a_now) % self.angles;
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scaling_formulas() {
        let t = Topology::new(8, 4);
        assert_eq!(t.cylinders(), 4); // C = log2(8) + 1
        assert_eq!(t.ports(), 32);
        assert_eq!(t.nodes(), 128); // A*H*C
    }

    #[test]
    fn node_count_scales_as_n_log_n() {
        // N = A*H*(log2 H + 1): doubling H adds one cylinder.
        let a = Topology::new(8, 4);
        let b = Topology::new(16, 4);
        assert_eq!(b.cylinders(), a.cylinders() + 1);
        assert_eq!(b.ports(), 2 * a.ports());
    }

    #[test]
    fn for_ports_is_exact() {
        for ports in [8usize, 16, 32, 64, 128, 256, 1024, 4096] {
            let t = Topology::for_ports(ports, 4);
            assert_eq!(t.ports(), ports, "requested {ports}");
        }
        assert_eq!(Topology::for_ports(64, 2).ports(), 64);
    }

    #[test]
    #[should_panic(expected = "no exact Data Vortex topology")]
    fn for_ports_rejects_inexact_requests() {
        // The old behavior silently built 64 ports here, skewing every
        // per-port figure normalized by the requested 48.
        let _ = Topology::for_ports(48, 4);
    }

    #[test]
    fn port_position_round_trip() {
        let t = Topology::new(8, 4);
        for p in 0..t.ports() {
            let (h, a) = t.port_position(p);
            assert_eq!(t.position_port(h, a), p);
        }
    }

    #[test]
    fn masks_cover_all_bits_msb_first() {
        let t = Topology::new(16, 2);
        let masks: Vec<usize> = (0..t.cylinders() - 1).map(|c| t.height_mask(c)).collect();
        assert_eq!(masks, vec![8, 4, 2, 1]);
    }

    #[test]
    fn deflection_preserves_matched_bits() {
        let t = Topology::new(16, 2);
        // In cylinder 2, bits 0 and 1 (values 8 and 4) are already matched;
        // deflection may only change bit 2 (value 2).
        let h = 0b1101;
        let d = t.deflect_height(2, h);
        assert_eq!(d & 0b1100, h & 0b1100);
        assert_ne!(d & 0b0010, h & 0b0010);
    }

    #[test]
    fn min_hops_reaches_destination_height() {
        let t = Topology::new(8, 4);
        for src in 0..t.ports() {
            for dst in 0..t.ports() {
                let hops = t.min_hops(src, dst);
                // Bounded by 2 hops per routing cylinder plus a full circle.
                assert!(hops <= 2 * (t.cylinders() - 1) + t.angles, "{src}->{dst}: {hops}");
            }
        }
    }

    #[test]
    fn same_height_routes_need_no_deflection() {
        let t = Topology::new(8, 4);
        // src and dst at equal heights: exactly C-1 descents + angle circle.
        let src = t.position_port(3, 0);
        let dst = t.position_port(3, 2);
        let hops = t.min_hops(src, dst);
        let descents = t.cylinders() - 1;
        let a_after = descents % t.angles;
        let circle = (2 + t.angles - a_after) % t.angles;
        assert_eq!(hops, descents + circle);
    }
}
