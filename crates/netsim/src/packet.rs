//! The simulated packet model.
//!
//! Packets carry a simplified IPv4 header plus either a TCP or a UDP
//! header and an opaque payload. The model keeps exactly the attributes
//! the DDoShield-IoT feature extractor consumes (addresses, ports,
//! protocol, flags, sequence numbers, lengths) and omits the rest
//! (checksums, fragmentation, options).
//!
//! Every packet also carries a [`Provenance`] ground-truth tag set by the
//! *sending application*. The tag is invisible to the IDS feature pipeline
//! and exists only so captures can be labelled the way the paper labels
//! them (traffic emitted by Mirai components is malicious, everything else
//! benign).

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A simulated IPv4 address (stored as a `u32` in network order).
///
/// ```
/// use netsim::packet::Addr;
///
/// let a = Addr::new(10, 0, 0, 7);
/// assert_eq!(a.to_string(), "10.0.0.7");
/// assert_eq!(Addr::from_bits(a.to_bits()), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Addr(u32);

impl Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Addr = Addr(0);
    /// Limited-broadcast address `255.255.255.255`.
    pub const BROADCAST: Addr = Addr(u32::MAX);

    /// Creates an address from its four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Creates an address from its raw 32-bit representation.
    pub const fn from_bits(bits: u32) -> Self {
        Addr(bits)
    }

    /// The raw 32-bit representation.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// The four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }

    /// `true` for `0.0.0.0`.
    pub const fn is_unspecified(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<[u8; 4]> for Addr {
    fn from(o: [u8; 4]) -> Self {
        Addr::new(o[0], o[1], o[2], o[3])
    }
}

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Protocol {
    /// The IANA protocol number (6 for TCP, 17 for UDP).
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => f.write_str("TCP"),
            Protocol::Udp => f.write_str("UDP"),
        }
    }
}

/// TCP header flags, as a compact bit set.
///
/// A hand-rolled flag set (rather than the `bitflags` crate) keeps the
/// workspace dependency list to the approved set.
///
/// ```
/// use netsim::packet::TcpFlags;
///
/// let f = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(f.contains(TcpFlags::SYN));
/// assert!(!f.contains(TcpFlags::FIN));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// Final segment from sender.
    pub const FIN: TcpFlags = TcpFlags(0b0000_0001);
    /// Synchronise sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0b0000_0010);
    /// Reset the connection.
    pub const RST: TcpFlags = TcpFlags(0b0000_0100);
    /// Push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0b0000_1000);
    /// Acknowledgement field is significant.
    pub const ACK: TcpFlags = TcpFlags(0b0001_0000);

    /// The raw flag bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs flags from raw bits (unknown bits are kept).
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// `true` if every flag in `other` is also set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` if any flag in `other` is set in `self`.
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// `true` if no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for TcpFlags {
    type Output = TcpFlags;
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (flag, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ] {
            if self.contains(flag) {
                if wrote {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                wrote = true;
            }
        }
        if !wrote {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// The TCP-specific portion of a packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement number (valid when ACK flag set).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u16,
}

/// The UDP-specific portion of a packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// Transport header: TCP or UDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// A TCP segment header.
    Tcp(TcpHeader),
    /// A UDP datagram header.
    Udp(UdpHeader),
}

impl Transport {
    /// The protocol discriminant.
    pub const fn protocol(&self) -> Protocol {
        match self {
            Transport::Tcp(_) => Protocol::Tcp,
            Transport::Udp(_) => Protocol::Udp,
        }
    }

    /// Source port of either header.
    pub const fn src_port(&self) -> u16 {
        match self {
            Transport::Tcp(h) => h.src_port,
            Transport::Udp(h) => h.src_port,
        }
    }

    /// Destination port of either header.
    pub const fn dst_port(&self) -> u16 {
        match self {
            Transport::Tcp(h) => h.dst_port,
            Transport::Udp(h) => h.dst_port,
        }
    }

    /// TCP flags if this is a TCP header, empty otherwise.
    pub fn tcp_flags(&self) -> TcpFlags {
        match self {
            Transport::Tcp(h) => h.flags,
            Transport::Udp(_) => TcpFlags::EMPTY,
        }
    }
}

/// Ground-truth origin class of a packet, for capture labelling only.
///
/// This mirrors how the paper labels its dataset: packets are malicious
/// if they were produced by a Mirai component (scanner, loader, C2, bot
/// floods) and benign otherwise. The tag travels with the packet but is
/// *not* an observable feature — the feature extractor never reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Provenance {
    /// Legitimate application traffic (HTTP, video, FTP, and their ACKs).
    #[default]
    Benign,
    /// Traffic emitted by a botnet component.
    Malicious,
}

/// Size in bytes of the simulated IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;
/// Size in bytes of the simulated TCP header (no options).
pub const TCP_HEADER_LEN: usize = 20;
/// Size in bytes of the simulated UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A simulated network packet: IPv4 header + transport header + payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Source IPv4 address (possibly spoofed by attack traffic).
    pub src: Addr,
    /// Destination IPv4 address.
    pub dst: Addr,
    /// Time-to-live (informational; the flat topologies never expire it).
    pub ttl: u8,
    /// Transport-layer header.
    pub transport: Transport,
    /// Opaque payload bytes.
    #[serde(with = "serde_bytes_compat")]
    pub payload: Bytes,
    /// Ground-truth origin class (capture labelling only).
    pub provenance: Provenance,
}

// With the vendored no-op serde derives nothing generates calls into
// this module; it stays as the documented wire mapping for payloads and
// is exercised by the unit tests below.
#[allow(dead_code)]
mod serde_bytes_compat {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        b.as_ref().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        Ok(Bytes::from(Vec::<u8>::deserialize(d)?))
    }
}

impl Packet {
    /// Builds a TCP segment.
    pub fn tcp(src: Addr, dst: Addr, header: TcpHeader, payload: Bytes) -> Self {
        Packet { src, dst, ttl: 64, transport: Transport::Tcp(header), payload, provenance: Provenance::Benign }
    }

    /// Builds a UDP datagram.
    pub fn udp(src: Addr, dst: Addr, src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            ttl: 64,
            transport: Transport::Udp(UdpHeader { src_port, dst_port }),
            payload,
            provenance: Provenance::Benign,
        }
    }

    /// Returns the packet re-tagged with the given provenance.
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Transport protocol of the packet.
    pub fn protocol(&self) -> Protocol {
        self.transport.protocol()
    }

    /// Total on-the-wire length in bytes (headers + payload).
    pub fn wire_len(&self) -> usize {
        let transport_len = match self.transport {
            Transport::Tcp(_) => TCP_HEADER_LEN,
            Transport::Udp(_) => UDP_HEADER_LEN,
        };
        IPV4_HEADER_LEN + transport_len + self.payload.len()
    }

    /// TCP flags (empty for UDP packets).
    pub fn tcp_flags(&self) -> TcpFlags {
        self.transport.tcp_flags()
    }

    /// TCP sequence number, if this is a TCP segment.
    pub fn tcp_seq(&self) -> Option<u32> {
        match self.transport {
            Transport::Tcp(h) => Some(h.seq),
            Transport::Udp(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_octet_roundtrip() {
        let a = Addr::new(192, 168, 1, 42);
        assert_eq!(a.octets(), [192, 168, 1, 42]);
        assert_eq!(Addr::from(a.octets()), a);
        assert_eq!(a.to_string(), "192.168.1.42");
        assert!(Addr::UNSPECIFIED.is_unspecified());
    }

    #[test]
    fn flags_set_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::SYN | TcpFlags::FIN));
        assert!(f.intersects(TcpFlags::FIN | TcpFlags::ACK));
        assert!(!f.intersects(TcpFlags::FIN | TcpFlags::RST));
        assert_eq!((f & TcpFlags::SYN), TcpFlags::SYN);
        assert!(TcpFlags::EMPTY.is_empty());
        assert_eq!(TcpFlags::from_bits(f.bits()), f);
    }

    #[test]
    fn flags_display_lists_names() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "-");
    }

    #[test]
    fn wire_len_counts_headers() {
        let udp = Packet::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1000, 53, Bytes::from_static(b"hi"));
        assert_eq!(udp.wire_len(), IPV4_HEADER_LEN + UDP_HEADER_LEN + 2);
        let tcp = Packet::tcp(
            Addr::new(1, 1, 1, 1),
            Addr::new(2, 2, 2, 2),
            TcpHeader { src_port: 1, dst_port: 2, seq: 0, ack: 0, flags: TcpFlags::SYN, window: 65535 },
            Bytes::new(),
        );
        assert_eq!(tcp.wire_len(), IPV4_HEADER_LEN + TCP_HEADER_LEN);
    }

    #[test]
    fn provenance_defaults_to_benign_and_can_be_overridden() {
        let p = Packet::udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1), 1, 2, Bytes::new());
        assert_eq!(p.provenance, Provenance::Benign);
        let p = p.with_provenance(Provenance::Malicious);
        assert_eq!(p.provenance, Provenance::Malicious);
    }

    #[test]
    fn protocol_numbers_match_iana() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
    }

    #[test]
    fn payload_wire_mapping_roundtrips() {
        use serde::{Deserializer, Serializer};

        struct ByteSink;
        impl Serializer for ByteSink {
            type Ok = Vec<u8>;
            type Error = ();
            fn serialize_bytes(self, v: &[u8]) -> Result<Vec<u8>, ()> {
                Ok(v.to_vec())
            }
        }
        struct ByteSource(Vec<u8>);
        impl<'de> Deserializer<'de> for ByteSource {
            type Error = ();
            fn deserialize_byte_buf(self) -> Result<Vec<u8>, ()> {
                Ok(self.0)
            }
        }

        let payload = Bytes::from(vec![1u8, 2, 3]);
        let wire = super::serde_bytes_compat::serialize(&payload, ByteSink).unwrap();
        let back = super::serde_bytes_compat::deserialize(ByteSource(wire)).unwrap();
        assert_eq!(back, payload);
    }
}
