//! The protocol feature registry — the paper's Table 2.
//!
//! "Relevant features for different wireless protocols in the 2.4 GHz ISM
//! band": timing (slot/IFS), modulation scheme, spreading, and channel
//! width. The fast detectors are parameterized from exactly these features,
//! which is what makes the architecture protocol-extensible: supporting a
//! new technology means adding a row here plus a small metadata-matching
//! block.

use rfd_phy::Protocol;

/// One row of the feature table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProtocolFeatures {
    /// Protocol tag.
    pub protocol: Protocol,
    /// Human-readable variant ("802.11b (1 Mbps)", "Bluetooth BR", ...).
    pub variant: &'static str,
    /// Slot time in µs, when the MAC is slotted.
    pub slot_us: Option<f64>,
    /// Interframe-space / turnaround timings the detectors key on, µs.
    pub ifs_us: &'static [f64],
    /// Modulation scheme name.
    pub modulation: &'static str,
    /// Spreading scheme name.
    pub spreading: &'static str,
    /// Occupied channel width, MHz.
    pub channel_width_mhz: f64,
}

/// The registry (paper Table 2).
pub(crate) fn table2() -> Vec<ProtocolFeatures> {
    use rfd_phy::{bluetooth, wifi, zigbee};
    vec![
        ProtocolFeatures {
            protocol: Protocol::Wifi,
            variant: "802.11b (1 Mbps)",
            slot_us: Some(wifi::SLOT_US),
            ifs_us: &[10.0, 50.0], // SIFS, DIFS
            modulation: "DBPSK",
            spreading: "Barker",
            channel_width_mhz: wifi::CHANNEL_WIDTH_HZ / 1e6,
        },
        ProtocolFeatures {
            protocol: Protocol::Wifi,
            variant: "802.11b (2 Mbps)",
            slot_us: Some(wifi::SLOT_US),
            ifs_us: &[10.0, 50.0],
            modulation: "DQPSK",
            spreading: "Barker",
            channel_width_mhz: wifi::CHANNEL_WIDTH_HZ / 1e6,
        },
        ProtocolFeatures {
            protocol: Protocol::Wifi,
            variant: "802.11b (5.5/11 Mbps)",
            slot_us: Some(wifi::SLOT_US),
            ifs_us: &[10.0, 50.0],
            modulation: "DQPSK",
            spreading: "CCK",
            channel_width_mhz: wifi::CHANNEL_WIDTH_HZ / 1e6,
        },
        ProtocolFeatures {
            protocol: Protocol::Bluetooth,
            variant: "Bluetooth BR",
            slot_us: Some(bluetooth::SLOT_US),
            ifs_us: &[],
            modulation: "GFSK",
            spreading: "FHSS",
            channel_width_mhz: bluetooth::CHANNEL_WIDTH_HZ / 1e6,
        },
        ProtocolFeatures {
            protocol: Protocol::Zigbee,
            variant: "802.15.4 (ZigBee)",
            slot_us: Some(zigbee::BACKOFF_US),
            ifs_us: &[zigbee::TACK_US, zigbee::LIFS_US],
            modulation: "O-QPSK",
            spreading: "DSSS-32",
            channel_width_mhz: zigbee::CHANNEL_WIDTH_HZ / 1e6,
        },
        ProtocolFeatures {
            protocol: Protocol::Microwave,
            variant: "Residential microwave",
            slot_us: None,
            ifs_us: &[16_666.7, 20_000.0], // AC cycle
            modulation: "swept CW",
            spreading: "none",
            channel_width_mhz: 30.0, // wanders tens of MHz
        },
    ]
}

/// Renders the registry as an aligned text table.
pub fn render_table2() -> String {
    let mut s = String::from(
        "protocol    variant                  slot_us  ifs_us            modulation  spreading  width_mhz\n",
    );
    for f in table2() {
        let ifs = f
            .ifs_us
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join("/");
        s.push_str(&format!(
            "{:<11} {:<24} {:>7} {:<17} {:<11} {:<10} {:>8.1}\n",
            f.protocol.name(),
            f.variant,
            f.slot_us
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            if ifs.is_empty() { "-".into() } else { ifs },
            f.modulation,
            f.spreading,
            f.channel_width_mhz,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_protocols() {
        let t = table2();
        for p in Protocol::ALL {
            assert!(
                t.iter().any(|f| f.protocol == p),
                "{p} missing from Table 2"
            );
        }
    }

    #[test]
    fn paper_constants_match() {
        let t = table2();
        let b1 = t.iter().find(|f| f.variant.contains("1 Mbps")).unwrap();
        assert_eq!(b1.slot_us, Some(20.0));
        assert_eq!(b1.ifs_us, &[10.0, 50.0]);
        assert_eq!(b1.channel_width_mhz, 22.0);
        let bt = t
            .iter()
            .find(|f| f.protocol == Protocol::Bluetooth)
            .unwrap();
        assert_eq!(bt.slot_us, Some(625.0));
        assert_eq!(bt.channel_width_mhz, 1.0);
        let zb = t.iter().find(|f| f.protocol == Protocol::Zigbee).unwrap();
        assert_eq!(zb.slot_us, Some(320.0));
        assert_eq!(zb.channel_width_mhz, 5.0);
    }

    #[test]
    fn table_renders_every_row() {
        let s = render_table2();
        assert_eq!(s.lines().count(), 1 + table2().len());
        assert!(s.contains("GFSK"));
        assert!(s.contains("Barker"));
        assert!(s.contains("O-QPSK"));
    }
}
