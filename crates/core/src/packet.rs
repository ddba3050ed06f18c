//! The Data Vortex packet.
//!
//! Every transfer on the Data Vortex network is a fixed-size packet: a
//! 64-bit header plus a 64-bit payload (Section II of the paper). The header
//! names the destination VIC, an address *within* that VIC — a DV-memory
//! slot, the surprise FIFO, or a group counter — and an optional group
//! counter to decrement when the payload lands.
//!
//! The concrete bit layout of the proprietary `dvapi` header is not public;
//! the layout below is our own, sized from the figures the paper does give
//! (32 MB of DV memory addressed as 2²² 64-bit words, 64 group counters) and
//! is documented so tests can exercise exact round-trips.
//!
//! ```text
//!  63      54 53      42 41      30 29  28 27   22 21            0
//! +----------+----------+----------+------+-------+---------------+
//! |  flags   |  source  |  dest    | space|  gc   |   address     |
//! | (10 bit) | (12 bit) | (12 bit) |(2bit)|(6 bit)|   (22 bit)    |
//! +----------+----------+----------+------+-------+---------------+
//! ```

use crate::{NodeId, Word};

/// Number of addressable 64-bit words in a VIC's DV memory (32 MB).
pub const DV_MEMORY_WORDS: usize = 1 << 22;
/// Number of group counters per VIC.
pub const GROUP_COUNTERS: usize = 64;
/// The group counter reserved as a scratch counter (decrements are ignored
/// by software; the paper: "one of these is presently reserved as a scratch
/// group counter").
pub const SCRATCH_GC: u8 = 0;
/// The two group counters reserved for the hardware barrier implementation.
pub const BARRIER_GC: [u8; 2] = [1, 2];
/// Size in bytes of one packet on the wire (header + payload).
pub const PACKET_BYTES: u64 = 16;
/// Size in bytes of the payload alone.
pub const PAYLOAD_BYTES: u64 = 8;

/// Most VICs one cluster can address: the header's source and destination
/// fields are 12 bits wide.
pub const MAX_NODES: usize = 1 << NODE_BITS;

const ADDR_BITS: u32 = 22;
const GC_BITS: u32 = 6;
const SPACE_BITS: u32 = 2;
const NODE_BITS: u32 = 12;

const ADDR_SHIFT: u32 = 0;
const GC_SHIFT: u32 = ADDR_SHIFT + ADDR_BITS;
const SPACE_SHIFT: u32 = GC_SHIFT + GC_BITS;
const DEST_SHIFT: u32 = SPACE_SHIFT + SPACE_BITS;
const SRC_SHIFT: u32 = DEST_SHIFT + NODE_BITS;
#[allow(dead_code)] // documents the layout; exercised by the layout test
const FLAGS_SHIFT: u32 = SRC_SHIFT + NODE_BITS;

const fn mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Which structure inside the destination VIC a packet is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpace {
    /// Write the payload into DV memory at `address` (last write wins).
    DvMemory,
    /// Append the payload to the surprise-packet FIFO (`address` ignored).
    SurpriseFifo,
    /// Set group counter number `address & 0x3f` to the payload value.
    GroupCounterSet,
    /// Query: read DV memory at `address` and send its value back in a new
    /// packet whose *header* is this packet's payload ("return header").
    Query,
}

impl AddressSpace {
    fn to_bits(self) -> u64 {
        match self {
            AddressSpace::DvMemory => 0,
            AddressSpace::SurpriseFifo => 1,
            AddressSpace::GroupCounterSet => 2,
            AddressSpace::Query => 3,
        }
    }

    fn from_bits(bits: u64) -> Self {
        match bits & mask(SPACE_BITS) {
            0 => AddressSpace::DvMemory,
            1 => AddressSpace::SurpriseFifo,
            2 => AddressSpace::GroupCounterSet,
            _ => AddressSpace::Query,
        }
    }
}

/// Decoded form of the 64-bit packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHeader {
    /// Destination VIC.
    pub dest: NodeId,
    /// Source VIC (informational; replies from [`AddressSpace::Query`]
    /// packets do *not* have to return here — the return header in the
    /// payload chooses the reply destination).
    pub src: NodeId,
    /// Which VIC structure the payload is delivered to.
    pub space: AddressSpace,
    /// Word address within the destination structure.
    pub address: u32,
    /// Group counter at the destination to decrement on arrival.
    /// Use [`SCRATCH_GC`] when completion doesn't need tracking.
    pub group_counter: u8,
}

impl PacketHeader {
    /// Create a header targeting a DV-memory slot.
    pub fn dv_memory(src: NodeId, dest: NodeId, address: u32, group_counter: u8) -> Self {
        Self { dest, src, space: AddressSpace::DvMemory, address, group_counter }
    }

    /// Create a header targeting the surprise FIFO.
    pub fn fifo(src: NodeId, dest: NodeId, group_counter: u8) -> Self {
        Self { dest, src, space: AddressSpace::SurpriseFifo, address: 0, group_counter }
    }

    /// Create a header that sets a remote group counter.
    pub fn gc_set(src: NodeId, dest: NodeId, counter: u8) -> Self {
        Self {
            dest,
            src,
            space: AddressSpace::GroupCounterSet,
            address: counter as u32,
            group_counter: SCRATCH_GC,
        }
    }

    /// Create a query ("return header") packet header.
    pub fn query(src: NodeId, dest: NodeId, address: u32) -> Self {
        Self { dest, src, space: AddressSpace::Query, address, group_counter: SCRATCH_GC }
    }

    /// Pack into the 64-bit wire representation.
    ///
    /// # Panics
    /// Panics (in debug builds) if a field exceeds its bit width.
    pub fn encode(&self) -> Word {
        debug_assert!(self.dest < (1 << NODE_BITS), "dest VIC id too large");
        debug_assert!(self.src < (1 << NODE_BITS), "src VIC id too large");
        debug_assert!((self.address as u64) <= mask(ADDR_BITS), "DV address too large");
        debug_assert!((self.group_counter as usize) < GROUP_COUNTERS);
        (self.address as u64 & mask(ADDR_BITS)) << ADDR_SHIFT
            | (self.group_counter as u64 & mask(GC_BITS)) << GC_SHIFT
            | self.space.to_bits() << SPACE_SHIFT
            | (self.dest as u64 & mask(NODE_BITS)) << DEST_SHIFT
            | (self.src as u64 & mask(NODE_BITS)) << SRC_SHIFT
    }

    /// Unpack from the 64-bit wire representation.
    pub fn decode(word: Word) -> Self {
        Self {
            address: ((word >> ADDR_SHIFT) & mask(ADDR_BITS)) as u32,
            group_counter: ((word >> GC_SHIFT) & mask(GC_BITS)) as u8,
            space: AddressSpace::from_bits(word >> SPACE_SHIFT),
            dest: ((word >> DEST_SHIFT) & mask(NODE_BITS)) as NodeId,
            src: ((word >> SRC_SHIFT) & mask(NODE_BITS)) as NodeId,
        }
    }

    /// The routing bits the switch consumes: one header bit per cylinder
    /// level, MSB-first over `height_bits` bits of the destination port's
    /// height coordinate (Section II: "the c-th bit of the packet header is
    /// compared with the most significant bit of the node's height").
    pub fn routing_bits(dest_height: usize, height_bits: u32) -> Vec<bool> {
        (0..height_bits).rev().map(|b| (dest_height >> b) & 1 == 1).collect()
    }
}

/// A full Data Vortex packet: header plus single-word payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The decoded header.
    pub header: PacketHeader,
    /// The 64-bit payload.
    pub payload: Word,
}

impl Packet {
    /// Convenience constructor.
    pub fn new(header: PacketHeader, payload: Word) -> Self {
        Self { header, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fits_in_64_bits() {
        // Evaluated via a binding so the check survives constant folding
        // (clippy rejects assert! on a literal constant expression).
        let flags_shift = FLAGS_SHIFT;
        assert!(flags_shift <= 64);
        assert_eq!(ADDR_BITS as usize, (DV_MEMORY_WORDS as f64).log2() as usize);
        assert_eq!(1usize << GC_BITS, GROUP_COUNTERS);
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = PacketHeader {
            dest: 31,
            src: 7,
            space: AddressSpace::DvMemory,
            address: 0x3A_BCDE,
            group_counter: 63,
        };
        assert_eq!(PacketHeader::decode(h.encode()), h);
    }

    #[test]
    fn all_spaces_round_trip() {
        for space in [
            AddressSpace::DvMemory,
            AddressSpace::SurpriseFifo,
            AddressSpace::GroupCounterSet,
            AddressSpace::Query,
        ] {
            let h = PacketHeader { dest: 1, src: 2, space, address: 42, group_counter: 3 };
            assert_eq!(PacketHeader::decode(h.encode()).space, space);
        }
    }

    #[test]
    fn constructors_set_expected_fields() {
        let h = PacketHeader::dv_memory(1, 2, 100, 5);
        assert_eq!((h.src, h.dest, h.address, h.group_counter), (1, 2, 100, 5));
        assert_eq!(h.space, AddressSpace::DvMemory);

        let f = PacketHeader::fifo(3, 4, SCRATCH_GC);
        assert_eq!(f.space, AddressSpace::SurpriseFifo);

        let g = PacketHeader::gc_set(0, 9, 17);
        assert_eq!(g.space, AddressSpace::GroupCounterSet);
        assert_eq!(g.address, 17);

        let q = PacketHeader::query(5, 6, 1000);
        assert_eq!(q.space, AddressSpace::Query);
    }

    #[test]
    fn routing_bits_msb_first() {
        // Height 5 = 0b101 over 3 bits -> [true, false, true].
        assert_eq!(PacketHeader::routing_bits(5, 3), vec![true, false, true]);
        // Height 1 over 4 bits -> [false, false, false, true].
        assert_eq!(PacketHeader::routing_bits(1, 4), vec![false, false, false, true]);
    }

    #[test]
    fn reserved_counters_are_distinct() {
        assert_ne!(BARRIER_GC[0], BARRIER_GC[1]);
        assert!(!BARRIER_GC.contains(&SCRATCH_GC));
    }
}
