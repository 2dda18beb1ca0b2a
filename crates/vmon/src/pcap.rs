//! libpcap capture files from simulated traffic — the literal Wireshark
//! substitution.
//!
//! The paper counts RTP packets with Wireshark; this module lets the
//! simulation produce *actual* `.pcap` files (classic libpcap format,
//! microsecond timestamps, Ethernet link type) that Wireshark/tshark will
//! open, with synthesized Ethernet/IPv4/UDP encapsulation around the real
//! SIP text and RTP datagrams. A matching reader parses the files back
//! for round-trip testing without external tools.

/// Classic libpcap magic (microsecond timestamps, native byte order).
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// Link type LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// A captured packet: timestamp plus the synthesized L2..L4 addressing
/// and the application payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Capture time in microseconds since the start of the run.
    pub timestamp_us: u64,
    /// Source node number (becomes MAC/IP).
    pub src_node: u16,
    /// Destination node number.
    pub dst_node: u16,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application bytes (SIP text or RTP datagram).
    pub payload: Vec<u8>,
}

/// An in-memory pcap being assembled.
#[derive(Debug, Clone, Default)]
pub struct PcapWriter {
    packets: Vec<CapturedPacket>,
}

impl PcapWriter {
    /// An empty capture.
    #[must_use]
    pub fn new() -> Self {
        PcapWriter::default()
    }

    /// Append one packet.
    pub fn capture(&mut self, pkt: CapturedPacket) {
        self.packets.push(pkt);
    }

    /// Number of packets captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Serialize the capture to libpcap bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.packets.len() * 128);
        // Global header.
        out.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&2u16.to_le_bytes()); // major
        out.extend_from_slice(&4u16.to_le_bytes()); // minor
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        for p in &self.packets {
            let frame = encapsulate(p);
            out.extend_from_slice(&((p.timestamp_us / 1_000_000) as u32).to_le_bytes());
            out.extend_from_slice(&((p.timestamp_us % 1_000_000) as u32).to_le_bytes());
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(&frame);
        }
        out
    }

    /// Write the capture to a file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }
}

/// Deterministic MAC for a node: locally administered, node in last bytes.
fn mac_of(node: u16) -> [u8; 6] {
    let n = node.to_be_bytes();
    [0x02, 0x53, 0x49, 0x4D, n[0], n[1]] // 02:53:49:4D = "SIM"
}

/// Deterministic IPv4 for a node: 10.0.(hi).(lo).
fn ip_of(node: u16) -> [u8; 4] {
    let n = node.to_be_bytes();
    [10, 0, n[0], n[1]]
}

/// Build Ethernet + IPv4 + UDP around a payload.
fn encapsulate(p: &CapturedPacket) -> Vec<u8> {
    let udp_len = 8 + p.payload.len();
    let ip_len = 20 + udp_len;
    let mut frame = Vec::with_capacity(14 + ip_len);
    // Ethernet.
    frame.extend_from_slice(&mac_of(p.dst_node));
    frame.extend_from_slice(&mac_of(p.src_node));
    frame.extend_from_slice(&0x0800u16.to_be_bytes());
    // IPv4 header.
    let ip_start = frame.len();
    frame.push(0x45); // version 4, IHL 5
    frame.push(0x00); // DSCP/ECN
    frame.extend_from_slice(&(ip_len as u16).to_be_bytes());
    frame.extend_from_slice(&0u16.to_be_bytes()); // identification
    frame.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    frame.push(64); // TTL
    frame.push(17); // UDP
    frame.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    frame.extend_from_slice(&ip_of(p.src_node));
    frame.extend_from_slice(&ip_of(p.dst_node));
    // IPv4 header checksum.
    let csum = ipv4_checksum(&frame[ip_start..ip_start + 20]);
    frame[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());
    // UDP header (checksum 0 = unset, legal for IPv4).
    frame.extend_from_slice(&p.src_port.to_be_bytes());
    frame.extend_from_slice(&p.dst_port.to_be_bytes());
    frame.extend_from_slice(&(udp_len as u16).to_be_bytes());
    frame.extend_from_slice(&0u16.to_be_bytes());
    frame.extend_from_slice(&p.payload);
    frame
}

/// RFC 791 header checksum.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in header.chunks(2) {
        let word = u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]);
        sum += u32::from(word);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Parse a capture produced by [`PcapWriter::to_bytes`] (or any classic
/// little-endian Ethernet pcap with IPv4/UDP inside).
pub fn read_pcap(bytes: &[u8]) -> Result<Vec<CapturedPacket>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::Truncated);
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != PCAP_MAGIC {
        return Err(PcapError::BadMagic);
    }
    let network = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    if network != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType);
    }
    let mut out = Vec::new();
    let mut at = 24usize;
    while at < bytes.len() {
        if at + 16 > bytes.len() {
            return Err(PcapError::Truncated);
        }
        let ts_sec = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let ts_usec = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        at += 16;
        if at + incl > bytes.len() {
            return Err(PcapError::Truncated);
        }
        let frame = &bytes[at..at + incl];
        at += incl;
        // Ethernet (14) + IPv4 (20) + UDP (8).
        if frame.len() < 42 {
            return Err(PcapError::MalformedFrame);
        }
        if u16::from_be_bytes([frame[12], frame[13]]) != 0x0800 || frame[23] != 17 {
            return Err(PcapError::MalformedFrame);
        }
        let src_node = u16::from_be_bytes([frame[28], frame[29]]);
        let dst_node = u16::from_be_bytes([frame[32], frame[33]]);
        let src_port = u16::from_be_bytes([frame[34], frame[35]]);
        let dst_port = u16::from_be_bytes([frame[36], frame[37]]);
        let udp_len = u16::from_be_bytes([frame[38], frame[39]]) as usize;
        if udp_len < 8 || 34 + udp_len > frame.len() {
            return Err(PcapError::MalformedFrame);
        }
        out.push(CapturedPacket {
            timestamp_us: u64::from(ts_sec) * 1_000_000 + u64::from(ts_usec),
            src_node,
            dst_node,
            src_port,
            dst_port,
            payload: frame[42..34 + udp_len].to_vec(),
        });
    }
    Ok(out)
}

/// Pcap read failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapError {
    /// File shorter than its declared structure.
    Truncated,
    /// Not a classic little-endian pcap.
    BadMagic,
    /// Not Ethernet-framed.
    UnsupportedLinkType,
    /// Frame too short / not IPv4+UDP.
    MalformedFrame,
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "truncated pcap"),
            PcapError::BadMagic => write!(f, "not a classic little-endian pcap"),
            PcapError::UnsupportedLinkType => write!(f, "unsupported link type"),
            PcapError::MalformedFrame => write!(f, "malformed Ethernet/IPv4/UDP frame"),
        }
    }
}

impl std::error::Error for PcapError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, payload: &[u8]) -> CapturedPacket {
        CapturedPacket {
            timestamp_us: ts,
            src_node: 1,
            dst_node: 3,
            src_port: 5060,
            dst_port: 5060,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn empty_capture_is_a_valid_header() {
        let w = PcapWriter::new();
        assert!(w.is_empty());
        let bytes = w.to_bytes();
        assert_eq!(bytes.len(), 24);
        assert_eq!(read_pcap(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = PcapWriter::new();
        w.capture(sample(1_500_000, b"INVITE sip:x SIP/2.0\r\n\r\n"));
        w.capture(sample(1_520_000, &[0x80, 0x00, 0x12, 0x34]));
        assert_eq!(w.len(), 2);
        let packets = read_pcap(&w.to_bytes()).unwrap();
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].timestamp_us, 1_500_000);
        assert_eq!(packets[0].payload, b"INVITE sip:x SIP/2.0\r\n\r\n");
        assert_eq!(packets[1].src_node, 1);
        assert_eq!(packets[1].dst_node, 3);
        assert_eq!(packets[1].dst_port, 5060);
    }

    #[test]
    fn ip_checksum_is_valid() {
        // Verify the header checksums to zero when re-summed with the
        // checksum field included (the RFC 791 validity criterion).
        let frame = encapsulate(&sample(0, b"x"));
        let header = &frame[14..34];
        let mut sum = 0u32;
        for pair in header.chunks(2) {
            sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum as u16, 0xFFFF, "one's-complement sum must be all ones");
    }

    #[test]
    fn addressing_is_deterministic() {
        assert_eq!(ip_of(3), [10, 0, 0, 3]);
        assert_eq!(ip_of(258), [10, 0, 1, 2]);
        assert_eq!(mac_of(3)[..4], [0x02, 0x53, 0x49, 0x4D]);
        assert_ne!(mac_of(1), mac_of(2));
    }

    #[test]
    fn reader_rejects_garbage() {
        assert_eq!(read_pcap(&[]), Err(PcapError::Truncated));
        assert_eq!(read_pcap(&[0u8; 24]), Err(PcapError::BadMagic));
        let mut w = PcapWriter::new();
        w.capture(sample(0, b"hello"));
        let mut bytes = w.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(read_pcap(&bytes), Err(PcapError::Truncated));
        // Wrong link type.
        let mut hdr = PcapWriter::new().to_bytes();
        hdr[20] = 101; // LINKTYPE_RAW
        assert_eq!(read_pcap(&hdr), Err(PcapError::UnsupportedLinkType));
    }

    #[test]
    fn file_write_works() {
        let mut w = PcapWriter::new();
        w.capture(sample(42, b"BYE sip:x SIP/2.0\r\n\r\n"));
        let dir = std::env::temp_dir().join("vmon-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.pcap");
        w.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(read_pcap(&bytes).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
