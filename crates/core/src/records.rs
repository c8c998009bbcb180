//! Packet records — RFDump's output, the wireless analogue of a tcpdump
//! line.

use rfd_phy::bluetooth::packet::BtPacketType;
use rfd_phy::wifi::frame::{MacAddr, MacFrameKind};
use rfd_phy::wifi::plcp::WifiRate;
use rfd_phy::Protocol;

/// Decoded (or merely detected) details of one monitored transmission.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketInfo {
    /// A decoded 802.11 frame.
    Wifi {
        /// PSDU rate from the PLCP header.
        rate: WifiRate,
        /// Frame type if the MAC parse succeeded.
        kind: Option<MacFrameKind>,
        /// Source address (absent on ACKs).
        src: Option<MacAddr>,
        /// Destination / receiver address.
        dst: Option<MacAddr>,
        /// Sequence number.
        seq: Option<u16>,
        /// PSDU length in bytes.
        psdu_len: usize,
        /// Whether the FCS verified.
        fcs_ok: bool,
    },
    /// A decoded Bluetooth baseband packet.
    Bluetooth {
        /// LAP of the piconet.
        lap: u32,
        /// Packet type, when the header decoded.
        ptype: Option<BtPacketType>,
        /// Payload bytes.
        payload_len: usize,
        /// Whether the payload CRC verified.
        crc_ok: bool,
    },
    /// A decoded 802.15.4 frame.
    Zigbee {
        /// Payload length (bytes before FCS).
        payload_len: usize,
    },
    /// Microwave-oven interference burst.
    Microwave,
    /// Classified by the fast detectors but not (successfully) demodulated.
    DetectedOnly {
        /// Best detector confidence.
        confidence: f32,
    },
}

/// One monitored transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// Protocol tag.
    pub protocol: Protocol,
    /// Start time, µs from trace start.
    pub start_us: f64,
    /// End time, µs.
    pub end_us: f64,
    /// SNR estimate from the peak detector, dB.
    pub snr_db: f32,
    /// Bluetooth RF channel, when known.
    pub channel: Option<u8>,
    /// Details.
    pub info: PacketInfo,
}

impl PacketRecord {
    /// Renders a tcpdump-style one-liner.
    pub fn format_line(&self) -> String {
        let t = self.start_us / 1e6;
        let dur = self.end_us - self.start_us;
        let head = format!("{t:12.6} {:<10}", self.protocol.name());
        let body = match &self.info {
            PacketInfo::Wifi {
                rate,
                kind,
                src,
                dst,
                seq,
                psdu_len,
                fcs_ok,
            } => {
                let kind_s = kind.map(|k| format!("{k:?}")).unwrap_or_else(|| "?".into());
                let src_s = src.map(|a| a.to_string()).unwrap_or_else(|| "-".into());
                let dst_s = dst.map(|a| a.to_string()).unwrap_or_else(|| "-".into());
                format!(
                    "{rate} {kind_s} {src_s} > {dst_s} seq {} len {psdu_len}{}",
                    seq.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                    if *fcs_ok { "" } else { " [bad fcs]" },
                )
            }
            PacketInfo::Bluetooth {
                lap,
                ptype,
                payload_len,
                crc_ok,
            } => format!(
                "lap {lap:06x} {} ch {} len {payload_len}{}",
                ptype
                    .map(|p| format!("{p:?}"))
                    .unwrap_or_else(|| "?".into()),
                self.channel
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "?".into()),
                if *crc_ok { "" } else { " [bad crc]" },
            ),
            PacketInfo::Zigbee { payload_len } => format!("802.15.4 len {payload_len}"),
            PacketInfo::Microwave => format!("burst {dur:.0} us"),
            PacketInfo::DetectedOnly { confidence } => {
                format!("detected (conf {confidence:.2}) {dur:.0} us")
            }
        };
        format!("{head} snr {:5.1} dB  {body}", self.snr_db)
    }
}

// ---------------------------------------------------------------------------
// Binary codec — used by the durability journal to persist emitted records.
// Floats round-trip via their raw bit patterns so a record recovered from the
// journal formats byte-identically to the original (`format_line` included).
// ---------------------------------------------------------------------------

mod codec {
    pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    pub(crate) struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl<'a> Reader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }
        pub(crate) fn done(&self) -> bool {
            self.pos == self.bytes.len()
        }
        pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let b = self.bytes.get(self.pos..self.pos + n)?;
            self.pos += n;
            Some(b)
        }
        pub(crate) fn u8(&mut self) -> Option<u8> {
            Some(self.take(1)?[0])
        }
        pub(crate) fn u16(&mut self) -> Option<u16> {
            Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
        }
        pub(crate) fn u32(&mut self) -> Option<u32> {
            Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
        }
        pub(crate) fn f32(&mut self) -> Option<f32> {
            Some(f32::from_bits(self.u32()?))
        }
        pub(crate) fn f64(&mut self) -> Option<f64> {
            Some(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().ok()?,
            )))
        }
    }
}

fn protocol_tag(p: Protocol) -> u8 {
    match p {
        Protocol::Wifi => 0,
        Protocol::Bluetooth => 1,
        Protocol::Zigbee => 2,
        Protocol::Microwave => 3,
    }
}

fn protocol_from_tag(t: u8) -> Option<Protocol> {
    Some(match t {
        0 => Protocol::Wifi,
        1 => Protocol::Bluetooth,
        2 => Protocol::Zigbee,
        3 => Protocol::Microwave,
        _ => return None,
    })
}

fn rate_tag(r: WifiRate) -> u8 {
    match r {
        WifiRate::R1 => 0,
        WifiRate::R2 => 1,
        WifiRate::R5_5 => 2,
        WifiRate::R11 => 3,
    }
}

fn rate_from_tag(t: u8) -> Option<WifiRate> {
    Some(match t {
        0 => WifiRate::R1,
        1 => WifiRate::R2,
        2 => WifiRate::R5_5,
        3 => WifiRate::R11,
        _ => return None,
    })
}

fn frame_kind_tag(k: MacFrameKind) -> u8 {
    match k {
        MacFrameKind::Data => 0,
        MacFrameKind::Ack => 1,
        MacFrameKind::Beacon => 2,
    }
}

fn frame_kind_from_tag(t: u8) -> Option<MacFrameKind> {
    Some(match t {
        0 => MacFrameKind::Data,
        1 => MacFrameKind::Ack,
        2 => MacFrameKind::Beacon,
        _ => return None,
    })
}

fn bt_type_tag(t: BtPacketType) -> u8 {
    match t {
        BtPacketType::Poll => 0,
        BtPacketType::Dm1 => 1,
        BtPacketType::Dh1 => 2,
        BtPacketType::Dm3 => 3,
        BtPacketType::Dh3 => 4,
        BtPacketType::Dm5 => 5,
        BtPacketType::Dh5 => 6,
    }
}

fn bt_type_from_tag(t: u8) -> Option<BtPacketType> {
    Some(match t {
        0 => BtPacketType::Poll,
        1 => BtPacketType::Dm1,
        2 => BtPacketType::Dh1,
        3 => BtPacketType::Dm3,
        4 => BtPacketType::Dh3,
        5 => BtPacketType::Dm5,
        6 => BtPacketType::Dh5,
        _ => return None,
    })
}

fn put_opt_u8(out: &mut Vec<u8>, v: Option<u8>) {
    match v {
        Some(b) => out.extend_from_slice(&[1, b]),
        None => out.push(0),
    }
}

impl PacketRecord {
    /// Serializes the record to the journal's compact binary form. The
    /// encoding is exact: every float is stored as its raw bit pattern, so
    /// [`PacketRecord::decode`] reconstructs a value that compares and
    /// formats identically.
    pub fn encode(&self) -> Vec<u8> {
        use codec::*;
        let mut out = Vec::with_capacity(64);
        out.push(protocol_tag(self.protocol));
        put_f64(&mut out, self.start_us);
        put_f64(&mut out, self.end_us);
        put_f32(&mut out, self.snr_db);
        put_opt_u8(&mut out, self.channel);
        match &self.info {
            PacketInfo::Wifi {
                rate,
                kind,
                src,
                dst,
                seq,
                psdu_len,
                fcs_ok,
            } => {
                out.push(0);
                out.push(rate_tag(*rate));
                put_opt_u8(&mut out, kind.map(frame_kind_tag));
                match src {
                    Some(a) => {
                        out.push(1);
                        out.extend_from_slice(&a.0);
                    }
                    None => out.push(0),
                }
                match dst {
                    Some(a) => {
                        out.push(1);
                        out.extend_from_slice(&a.0);
                    }
                    None => out.push(0),
                }
                match seq {
                    Some(s) => {
                        out.push(1);
                        put_u16(&mut out, *s);
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, *psdu_len as u32);
                out.push(*fcs_ok as u8);
            }
            PacketInfo::Bluetooth {
                lap,
                ptype,
                payload_len,
                crc_ok,
            } => {
                out.push(1);
                put_u32(&mut out, *lap);
                put_opt_u8(&mut out, ptype.map(bt_type_tag));
                put_u32(&mut out, *payload_len as u32);
                out.push(*crc_ok as u8);
            }
            PacketInfo::Zigbee { payload_len } => {
                out.push(2);
                put_u32(&mut out, *payload_len as u32);
            }
            PacketInfo::Microwave => out.push(3),
            PacketInfo::DetectedOnly { confidence } => {
                out.push(4);
                put_f32(&mut out, *confidence);
            }
        }
        out
    }

    /// Inverse of [`PacketRecord::encode`]. Returns `None` on any structural
    /// problem (short buffer, unknown tag, trailing bytes) — the journal
    /// layer treats that as a corrupt entry, never as a partial record.
    pub fn decode(bytes: &[u8]) -> Option<PacketRecord> {
        let mut r = codec::Reader::new(bytes);
        let protocol = protocol_from_tag(r.u8()?)?;
        let start_us = r.f64()?;
        let end_us = r.f64()?;
        let snr_db = r.f32()?;
        let channel = match r.u8()? {
            0 => None,
            1 => Some(r.u8()?),
            _ => return None,
        };
        let info = match r.u8()? {
            0 => {
                let rate = rate_from_tag(r.u8()?)?;
                let kind = match r.u8()? {
                    0 => None,
                    1 => Some(frame_kind_from_tag(r.u8()?)?),
                    _ => return None,
                };
                let addr = |r: &mut codec::Reader| -> Option<Option<MacAddr>> {
                    match r.u8()? {
                        0 => Some(None),
                        1 => Some(Some(MacAddr(r.take(6)?.try_into().ok()?))),
                        _ => None,
                    }
                };
                let src = addr(&mut r)?;
                let dst = addr(&mut r)?;
                let seq = match r.u8()? {
                    0 => None,
                    1 => Some(r.u16()?),
                    _ => return None,
                };
                let psdu_len = r.u32()? as usize;
                let fcs_ok = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                PacketInfo::Wifi {
                    rate,
                    kind,
                    src,
                    dst,
                    seq,
                    psdu_len,
                    fcs_ok,
                }
            }
            1 => {
                let lap = r.u32()?;
                let ptype = match r.u8()? {
                    0 => None,
                    1 => Some(bt_type_from_tag(r.u8()?)?),
                    _ => return None,
                };
                let payload_len = r.u32()? as usize;
                let crc_ok = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                PacketInfo::Bluetooth {
                    lap,
                    ptype,
                    payload_len,
                    crc_ok,
                }
            }
            2 => PacketInfo::Zigbee {
                payload_len: r.u32()? as usize,
            },
            3 => PacketInfo::Microwave,
            4 => PacketInfo::DetectedOnly {
                confidence: r.f32()?,
            },
            _ => return None,
        };
        if !r.done() {
            return None;
        }
        Some(PacketRecord {
            protocol,
            start_us,
            end_us,
            snr_db,
            channel,
            info,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_line_contains_key_fields() {
        let r = PacketRecord {
            protocol: Protocol::Wifi,
            start_us: 1234.5,
            end_us: 5938.5,
            snr_db: 23.4,
            channel: None,
            info: PacketInfo::Wifi {
                rate: WifiRate::R1,
                kind: Some(MacFrameKind::Data),
                src: Some(MacAddr::station(1)),
                dst: Some(MacAddr::station(2)),
                seq: Some(7),
                psdu_len: 532,
                fcs_ok: true,
            },
        };
        let line = r.format_line();
        assert!(line.contains("802.11"));
        assert!(line.contains("1 Mbps"));
        assert!(line.contains("seq 7"));
        assert!(line.contains("len 532"));
        assert!(!line.contains("bad fcs"));
    }

    #[test]
    fn bad_fcs_is_flagged() {
        let r = PacketRecord {
            protocol: Protocol::Wifi,
            start_us: 0.0,
            end_us: 100.0,
            snr_db: 10.0,
            channel: None,
            info: PacketInfo::Wifi {
                rate: WifiRate::R2,
                kind: None,
                src: None,
                dst: None,
                seq: None,
                psdu_len: 10,
                fcs_ok: false,
            },
        };
        assert!(r.format_line().contains("bad fcs"));
    }

    #[test]
    fn bluetooth_line_shows_channel_and_lap() {
        let r = PacketRecord {
            protocol: Protocol::Bluetooth,
            start_us: 625.0,
            end_us: 991.0,
            snr_db: 18.0,
            channel: Some(37),
            info: PacketInfo::Bluetooth {
                lap: 0x9E8B33,
                ptype: Some(BtPacketType::Dh5),
                payload_len: 300,
                crc_ok: true,
            },
        };
        let line = r.format_line();
        assert!(line.contains("9e8b33"));
        assert!(line.contains("ch 37"));
        assert!(line.contains("Dh5"));
    }

    #[test]
    fn codec_round_trips_every_variant_bit_exactly() {
        let records = vec![
            PacketRecord {
                protocol: Protocol::Wifi,
                start_us: 1_234.567_890_123,
                end_us: 5938.5,
                snr_db: 23.437,
                channel: None,
                info: PacketInfo::Wifi {
                    rate: WifiRate::R5_5,
                    kind: Some(MacFrameKind::Ack),
                    src: None,
                    dst: Some(MacAddr::BROADCAST),
                    seq: Some(4095),
                    psdu_len: 1536,
                    fcs_ok: false,
                },
            },
            PacketRecord {
                protocol: Protocol::Bluetooth,
                start_us: 625.0,
                end_us: 991.0,
                snr_db: f32::from_bits(0x4190_0001), // oddball mantissa survives
                channel: Some(78),
                info: PacketInfo::Bluetooth {
                    lap: 0x9E8B33,
                    ptype: None,
                    payload_len: 300,
                    crc_ok: true,
                },
            },
            PacketRecord {
                protocol: Protocol::Zigbee,
                start_us: 0.0,
                end_us: 352.0,
                snr_db: 9.0,
                channel: Some(15),
                info: PacketInfo::Zigbee { payload_len: 60 },
            },
            PacketRecord {
                protocol: Protocol::Microwave,
                start_us: 8_000_000.25,
                end_us: 8_008_000.75,
                snr_db: 31.5,
                channel: None,
                info: PacketInfo::Microwave,
            },
            PacketRecord {
                protocol: Protocol::Wifi,
                start_us: -0.0, // sign of zero must survive the round trip
                end_us: 100.0,
                snr_db: 10.0,
                channel: None,
                info: PacketInfo::DetectedOnly { confidence: 0.8125 },
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            let back = PacketRecord::decode(&bytes).expect("decode");
            assert_eq!(back, rec);
            assert_eq!(back.start_us.to_bits(), rec.start_us.to_bits());
            assert_eq!(back.format_line(), rec.format_line());
        }
    }

    #[test]
    fn codec_rejects_truncation_trailing_bytes_and_bad_tags() {
        let rec = PacketRecord {
            protocol: Protocol::Bluetooth,
            start_us: 1.0,
            end_us: 2.0,
            snr_db: 3.0,
            channel: Some(1),
            info: PacketInfo::Bluetooth {
                lap: 0xABCDEF,
                ptype: Some(BtPacketType::Poll),
                payload_len: 0,
                crc_ok: true,
            },
        };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(PacketRecord::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(PacketRecord::decode(&long).is_none(), "trailing bytes");
        let mut bad = bytes;
        bad[0] = 200; // unknown protocol tag
        assert!(PacketRecord::decode(&bad).is_none());
    }

    #[test]
    fn detected_only_shows_confidence() {
        let r = PacketRecord {
            protocol: Protocol::Microwave,
            start_us: 0.0,
            end_us: 8000.0,
            snr_db: 30.0,
            channel: None,
            info: PacketInfo::DetectedOnly { confidence: 0.8 },
        };
        assert!(r.format_line().contains("conf 0.80"));
    }
}
