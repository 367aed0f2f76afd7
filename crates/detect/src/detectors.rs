//! Ready-made detectors for the vantage points the studies model.
//!
//! * [`client_side`] — a phone watching the answers to its own probes:
//!   the stock signatures and behaviour tells at standard strictness,
//!   plus the networks the phone remembers as protected, so that one of
//!   them offered open trips the security-downgrade rule.
//!
//! The in-venue monitor needs no preset: it is
//! `Detector::new(DetectorSpec::standard())`, which knows no client's PNL.

use ch_wifi::Ssid;

use crate::{BehaviorParams, Detector, DetectorSpec, SignatureDb};

/// A client-side detector that remembers `protected` as protected
/// networks.
pub fn client_side(protected: impl IntoIterator<Item = Ssid>) -> Detector {
    let db = SignatureDb {
        protected_ssids: protected.into_iter().collect(),
        ..SignatureDb::standard()
    };
    Detector::with_db(DetectorSpec::standard(), db, BehaviorParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reason;
    use ch_sim::SimTime;
    use ch_wifi::mgmt::{Beacon, MgmtFrame, ProbeRequest, ProbeResponse};
    use ch_wifi::{Channel, MacAddr};

    /// A locally administered BSSID (3 points at standard strictness), so
    /// that each single tell below decides whether it reaches the flagging
    /// threshold of 7.
    fn randomized_ap() -> MacAddr {
        MacAddr::new([0x06, 0x11, 0x22, 0, 0, 1])
    }

    fn client() -> MacAddr {
        MacAddr::from_index([0xac, 0x37, 0x43], 1)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn beacon(name: &str) -> MgmtFrame {
        MgmtFrame::Beacon(Beacon::open(
            randomized_ap(),
            Ssid::new_lossy(name),
            Channel::default(),
        ))
    }

    /// The client probes for `name` and the AP answers it.
    fn answer_own_probe(detector: &mut Detector, at: SimTime, name: &str) {
        detector.observe(
            at,
            &MgmtFrame::ProbeRequest(ProbeRequest::direct(client(), Ssid::new_lossy(name))),
        );
        detector.observe(
            at,
            &MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                randomized_ap(),
                client(),
                Ssid::new_lossy(name),
                Channel::default(),
            )),
        );
    }

    #[test]
    fn colocation_fires_once_at_threshold() {
        let min = BehaviorParams::default().colocation_min;
        let mut detector = client_side([]);
        for i in 0..min - 1 {
            detector.observe(t(i as u64), &beacon(&format!("venue-net-{i}")));
        }
        assert!(detector.verdicts().is_empty(), "one SSID short");
        let at = t(min as u64);
        detector.observe(at, &beacon("venue-net-last"));
        assert_eq!(detector.verdicts().len(), 1);
        let verdict = detector.verdicts()[0];
        assert!(verdict.reasons.contains(Reason::ImplausibleCoLocation));
        assert_eq!(verdict.bssid, randomized_ap());
        // More SSIDs in the same window do not re-alarm.
        detector.observe(t(min as u64 + 1), &beacon("venue-net-more"));
        assert_eq!(detector.verdicts().len(), 1);
        assert_eq!(detector.first_flag(randomized_ap()), Some(at));
    }

    #[test]
    fn silent_ap_detects_beaconless_responders() {
        let mut silent = client_side([]);
        for i in 0..30u64 {
            answer_own_probe(&mut silent, t(i), "Corp");
        }
        assert_eq!(silent.verdicts().len(), 1);
        assert!(silent.verdicts()[0]
            .reasons
            .contains(Reason::SilentResponder));
        // A beaconing AP with the same behaviour is never flagged.
        let mut beaconing = client_side([]);
        beaconing.observe(t(0), &beacon("Corp"));
        for i in 0..50u64 {
            answer_own_probe(&mut beaconing, t(i), "Corp");
        }
        assert!(beaconing.verdicts().is_empty());
    }
}
