//! Offline evaluation of one attacker against a client-side detector.
//!
//! No venue and no radio: a single vulnerable client scans once a minute
//! next to the attacker, and every lure the attacker answers with goes
//! straight into a [`ch_detect::detectors::client_side`] detector that
//! remembers [`PROTECTED_SSID`] as protected. The number of attacker
//! frames on air before the first verdict is the attacker's stealth
//! budget. The `defense` study runs this loop once per attacker
//! generation.

use ch_attack::Attacker;
use ch_detect::detectors::client_side;
use ch_detect::Detector;
use ch_sim::{SimDuration, SimTime};
use ch_wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::{timing, Channel, MacAddr, Ssid};

/// Scan rounds per evaluation, one minute (one evidence window) apart.
pub const DEFENSE_ROUNDS: usize = 10;

/// The network the client remembers as protected and probes for directly
/// every round.
pub const PROTECTED_SSID: &str = "Corp-WPA2";

/// Feeds `attacker` `count` direct probes for distinct SSIDs from earlier
/// victims, as MANA would have harvested them before the evaluation.
pub fn preharvest(attacker: &mut dyn Attacker, count: usize) {
    for i in 0..count {
        let probe = ProbeRequest::direct(
            MacAddr::from_index([2, 0, 0], i as u32 + 100),
            Ssid::new_lossy(format!("Disclosed-{i}")),
        );
        attacker.respond_to_probe(SimTime::ZERO, &probe, timing::responses_per_scan());
    }
}

/// Runs the round loop: each round the client sends one broadcast probe
/// and one direct probe for [`PROTECTED_SSID`], and the detector hears the
/// probes and every lure answering them. Returns the detector and, if it
/// fired, the attacker frames on air up to and including the first
/// verdict and the (0-based) round that verdict fell in.
pub fn evaluate(attacker: &mut dyn Attacker) -> (Detector, Option<(usize, usize)>) {
    let mut detector = client_side([Ssid::new_lossy(PROTECTED_SSID)]);
    let client = MacAddr::new([0xac, 0x37, 0x43, 0, 0, 0x5d]);
    let channel = Channel::default_attack_channel();
    let probes = [
        ProbeRequest::broadcast(client),
        ProbeRequest::direct(client, Ssid::new_lossy(PROTECTED_SSID)),
    ];
    let mut frames = 0usize;
    // (attacker frames, round) at the first verdict.
    let mut detection: Option<(usize, usize)> = None;
    for round in 0..DEFENSE_ROUNDS {
        let now = SimTime::ZERO + SimDuration::from_secs(60 * round as u64);
        for probe in &probes {
            detector.observe(now, &MgmtFrame::ProbeRequest(probe.clone()));
            for lure in attacker.respond_to_probe(now, probe, timing::responses_per_scan()) {
                frames += 1;
                let response =
                    ProbeResponse::open_lure(attacker.bssid(), client, lure.ssid, channel);
                detector.observe(now, &MgmtFrame::ProbeResponse(response));
                if detection.is_none() && !detector.verdicts().is_empty() {
                    detection = Some((frames, round));
                }
            }
        }
        // One round past the detecting one shows the verdict repeats.
        if detection.is_some_and(|(_, at)| round > at) {
            break;
        }
    }
    (detector, detection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::standard_city;
    use ch_attack::{AttackerSpec, CityHunterConfig, KarmaAttacker, ManaAttacker};
    use ch_detect::Reason;
    use ch_mobility::VenueKind;

    fn bssid() -> MacAddr {
        AttackerSpec::default_bssid()
    }

    #[test]
    fn city_hunter_detected_within_one_burst() {
        let data = standard_city();
        let site = data.site_for(VenueKind::Canteen);
        let mut attacker = AttackerSpec::CityHunter(CityHunterConfig::default()).build_default(
            &data.wigle,
            &data.heat,
            site,
        );
        let (detector, detection) = evaluate(attacker.as_mut());
        let (frames, round) = detection.expect("City-Hunter is detected");
        assert!(frames <= timing::responses_per_scan(), "{frames} frames");
        assert_eq!(round, 0);
        assert_eq!(detector.verdicts()[0].bssid, bssid());
    }

    #[test]
    fn karma_caught_by_downgrade_on_direct_probe() {
        let mut attacker = KarmaAttacker::new(bssid());
        let (detector, detection) = evaluate(&mut attacker);
        // The echo of the direct probe for the protected network is
        // KARMA's first frame, and it is conclusive.
        assert_eq!(detection, Some((1, 0)));
        assert!(detector.verdicts()[0]
            .reasons
            .contains(Reason::SecurityDowngrade));
    }

    #[test]
    fn mana_detected_once_database_grows() {
        let mut attacker = ManaAttacker::new(bssid());
        preharvest(&mut attacker, 10);
        let (detector, detection) = evaluate(&mut attacker);
        let (frames, _) = detection.expect("MANA with a grown database is detected");
        assert!(frames <= 10, "{frames} frames");
        assert!(detector.verdicts()[0]
            .reasons
            .contains(Reason::BroadcastBait));
    }
}
