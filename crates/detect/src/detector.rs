//! Layer 2 — the windowed behavioral detector.
//!
//! A [`Detector`] watches the same management-frame stream the clients in
//! the sim hear. Per observed AP it accumulates an [`ApProfile`] of cheap
//! observables, evaluates the declarative [`SignatureDb`] over that profile
//! (layer 1), and layers windowed behavioral evidence on top:
//!
//! * **broadcast bait** — an AP answering *broadcast* probes with many
//!   distinct directed SSIDs the prober never asked for, the City-Hunter
//!   tell (§III of the paper);
//! * **PNL replay** — an AP advertising an SSID some *other* client just
//!   probed for, the MANA harvest-and-replay tell;
//! * **implausible co-location** — one BSSID claiming to be dozens of
//!   distinct networks;
//! * **deauth flood** — one source deauthenticating many distinct clients
//!   in a window, the §V-B forced-rescan extension.
//!
//! When an AP's combined score crosses the active [`Strictness`] threshold
//! the detector emits a scored [`DetectionVerdict`] (at most one per AP per
//! evidence window, so the verdict stream stays compact). The detector
//! consumes no randomness: the verdict stream is a pure function of the
//! observed frame sequence, which is what makes the `arms_race` experiment
//! byte-identical across `--jobs` widths.

use ch_sim::{det_hash_map, DetHashMap, SimDuration, SimTime};
use ch_wifi::mac::MacAddr;
use ch_wifi::mgmt::{Beacon, Deauthentication, MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::ssid::Ssid;

use crate::signature::{SignatureDb, ROGUE_MINIMAL_IE};
use crate::verdict::{DetectionVerdict, Reason};

/// Distinct clients one source must deauthenticate inside one evidence
/// window before the deauth-flood tell fires. A real AP drops an
/// occasional client (idle timeout, load shedding); the §V-B attack
/// sprays deauths across the room.
const DEAUTH_FLOOD_VICTIMS: usize = 5;

/// Points the deauth-flood tell contributes: enough to cross even the
/// lenient threshold on its own.
const DEAUTH_FLOOD_POINTS: u32 = 10;

/// How aggressively the detector flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strictness {
    /// Detection disabled; the detector observes nothing.
    Off,
    /// High threshold: only overwhelming evidence flags.
    Lenient,
    /// The default operating point.
    #[default]
    Standard,
    /// Low threshold: flags early, at the cost of false positives.
    Paranoid,
}

impl Strictness {
    /// Score an AP must reach to be flagged; `None` when detection is off.
    pub fn threshold(self) -> Option<u32> {
        match self {
            Strictness::Off => None,
            Strictness::Lenient => Some(10),
            Strictness::Standard => Some(7),
            Strictness::Paranoid => Some(4),
        }
    }

    /// Stable slug (experiment keys, rendered tables).
    pub fn slug(self) -> &'static str {
        match self {
            Strictness::Off => "off",
            Strictness::Lenient => "lenient",
            Strictness::Standard => "standard",
            Strictness::Paranoid => "paranoid",
        }
    }

    /// Parses a slug produced by [`Strictness::slug`].
    pub fn from_slug(slug: &str) -> Option<Strictness> {
        match slug {
            "off" => Some(Strictness::Off),
            "lenient" => Some(Strictness::Lenient),
            "standard" => Some(Strictness::Standard),
            "paranoid" => Some(Strictness::Paranoid),
            _ => None,
        }
    }
}

/// Tuning knobs for the behavioral layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorParams {
    /// A directed response this soon after a client's *broadcast* probe is
    /// treated as an answer to it.
    pub broadcast_reply_window: SimDuration,
    /// How long a directed probe keeps an SSID "recently probed" for the
    /// PNL-replay correlation.
    pub correlation_window: SimDuration,
    /// Distinct bait SSIDs in one window before the broadcast-bait signal
    /// fires.
    pub bait_min: usize,
    /// Cap on broadcast-bait points per window.
    pub bait_points_cap: u32,
    /// Cap on PNL-replay points per window.
    pub replay_points_cap: u32,
    /// Distinct advertised SSIDs before co-location fires.
    pub colocation_min: usize,
    /// Points co-location contributes.
    pub colocation_points: u32,
}

impl Default for BehaviorParams {
    fn default() -> Self {
        BehaviorParams {
            broadcast_reply_window: SimDuration::from_secs(2),
            correlation_window: SimDuration::from_secs(60),
            bait_min: 2,
            bait_points_cap: 10,
            replay_points_cap: 4,
            colocation_min: 10,
            colocation_points: 4,
        }
    }
}

/// Configuration for a [`Detector`]; threaded through
/// `ch_scenarios::RunConfig` so detection runs concurrently with an attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Flagging threshold regime.
    pub strictness: Strictness,
    /// Behavioral evidence window; windowed evidence resets at each
    /// boundary.
    pub window: SimDuration,
}

impl DetectorSpec {
    /// The default operating point (standard strictness, 60 s windows).
    pub fn standard() -> Self {
        DetectorSpec::default()
    }

    /// A spec at the given strictness with the default window.
    pub fn with_strictness(strictness: Strictness) -> Self {
        DetectorSpec {
            strictness,
            ..DetectorSpec::default()
        }
    }

    /// A present-but-disabled spec; behaves exactly like `None`.
    pub fn disabled() -> Self {
        DetectorSpec::with_strictness(Strictness::Off)
    }

    /// `true` if this spec disables detection entirely.
    pub fn is_disabled(&self) -> bool {
        self.strictness == Strictness::Off
    }
}

impl Default for DetectorSpec {
    fn default() -> Self {
        DetectorSpec {
            strictness: Strictness::Standard,
            window: SimDuration::from_secs(60),
        }
    }
}

/// Per-BSSID observables the signature rules and behavioral heuristics
/// read. Fields are public for [`SignatureRule`](crate::SignatureRule)
/// evaluation.
#[derive(Debug, Clone)]
pub struct ApProfile {
    /// First time this BSSID transmitted.
    pub first_seen: SimTime,
    /// OUI is on the signature denylist (computed once at creation).
    pub denylisted_oui: bool,
    /// BSSID carries the locally-administered bit.
    pub locally_administered: bool,
    /// Some advertised SSID matched bait wording.
    pub bait_ssid: bool,
    /// A frame carried the karma-style minimal IE set.
    pub rogue_ie: bool,
    /// Offered a network the signature DB lists as protected, open.
    pub downgrade: bool,
    /// Probe responses transmitted.
    pub responses: u64,
    /// Beacons transmitted.
    pub beacons: u64,
    /// Lowest and highest beacon interval observed, in TU.
    pub beacon_interval_range: Option<(u16, u16)>,
    /// Every distinct SSID this BSSID has advertised.
    advertised: ch_sim::DetHashSet<Ssid>,
    /// Current evidence window index.
    window: u64,
    /// Distinct unsolicited SSIDs answered to broadcast probes this window.
    window_bait: ch_sim::DetHashSet<Ssid>,
    /// PNL-replay observations this window.
    window_replays: u32,
    /// Distinct clients this source deauthenticated this window.
    window_deauthed: ch_sim::DetHashSet<MacAddr>,
    /// A verdict was already emitted this window.
    window_flagged: bool,
}

impl ApProfile {
    fn new(at: SimTime, denylisted_oui: bool, locally_administered: bool) -> Self {
        ApProfile {
            first_seen: at,
            denylisted_oui,
            locally_administered,
            bait_ssid: false,
            rogue_ie: false,
            downgrade: false,
            responses: 0,
            beacons: 0,
            beacon_interval_range: None,
            advertised: ch_sim::det_hash_set(),
            window: 0,
            window_bait: ch_sim::det_hash_set(),
            window_replays: 0,
            window_deauthed: ch_sim::det_hash_set(),
            window_flagged: false,
        }
    }

    /// Distinct SSIDs this BSSID has ever advertised.
    pub fn advertised_ssids(&self) -> usize {
        self.advertised.len()
    }

    fn roll_window(&mut self, window: u64) {
        if self.window != window {
            self.window = window;
            self.window_bait.clear();
            self.window_replays = 0;
            self.window_deauthed.clear();
            self.window_flagged = false;
        }
    }

    fn note_advertised(&mut self, ssid: &Ssid, bait: bool) {
        if !self.advertised.contains(ssid) {
            // Arc refcount bump into the detector's bookkeeping set; not
            // on the probe hot path.
            // ch-lint: allow(ssid-clone)
            self.advertised.insert(ssid.clone());
            if bait {
                self.bait_ssid = true;
            }
        }
    }

    fn note_interval(&mut self, interval_tu: u16) {
        self.beacon_interval_range = Some(match self.beacon_interval_range {
            Some((lo, hi)) => (lo.min(interval_tu), hi.max(interval_tu)),
            None => (interval_tu, interval_tu),
        });
    }
}

struct DirectProbe {
    client: MacAddr,
    at: SimTime,
}

/// The rogue-AP detector: signature DB + behavioral heuristics over an
/// observed frame stream.
pub struct Detector {
    spec: DetectorSpec,
    db: SignatureDb,
    params: BehaviorParams,
    profiles: DetHashMap<MacAddr, ApProfile>,
    broadcasters: DetHashMap<MacAddr, SimTime>,
    direct_probes: DetHashMap<Ssid, DirectProbe>,
    first_flags: DetHashMap<MacAddr, SimTime>,
    verdicts: Vec<DetectionVerdict>,
    frames: u64,
}

impl Detector {
    /// A detector with the stock signature database and behavior tuning.
    pub fn new(spec: DetectorSpec) -> Self {
        Detector::with_db(spec, SignatureDb::standard(), BehaviorParams::default())
    }

    /// A detector with a custom signature database and behavior tuning.
    pub fn with_db(spec: DetectorSpec, db: SignatureDb, params: BehaviorParams) -> Self {
        Detector {
            spec,
            db,
            params,
            profiles: det_hash_map(),
            broadcasters: det_hash_map(),
            direct_probes: det_hash_map(),
            first_flags: det_hash_map(),
            verdicts: Vec::new(),
            frames: 0,
        }
    }

    /// The active spec.
    pub fn spec(&self) -> &DetectorSpec {
        &self.spec
    }

    /// Feeds one observed frame.
    pub fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        if self.spec.is_disabled() {
            return;
        }
        self.frames += 1;
        match frame {
            MgmtFrame::ProbeRequest(probe) => self.observe_probe(at, probe),
            MgmtFrame::ProbeResponse(response) => self.observe_response(at, response),
            MgmtFrame::Beacon(beacon) => self.observe_beacon(at, beacon),
            MgmtFrame::Deauthentication(deauth) => self.observe_deauth(at, deauth),
            // The auth/assoc legs carry no AP-fingerprinting signal this
            // detector models; they still count as observed traffic.
            _ => {}
        }
    }

    fn observe_probe(&mut self, at: SimTime, probe: &ProbeRequest) {
        if probe.is_broadcast() {
            self.broadcasters.insert(probe.source, at);
        } else {
            match self.direct_probes.get_mut(&probe.ssid) {
                Some(entry) => {
                    entry.client = probe.source;
                    entry.at = at;
                }
                None => {
                    self.direct_probes.insert(
                        // Arc refcount bump keying the recently-probed pool.
                        // ch-lint: allow(ssid-clone)
                        probe.ssid.clone(),
                        DirectProbe {
                            client: probe.source,
                            at,
                        },
                    );
                }
            }
        }
    }

    /// `true` if `ssid` was directly probed within the correlation window
    /// by a client other than `client`.
    fn is_replay(&self, at: SimTime, ssid: &Ssid, client: MacAddr) -> bool {
        matches!(
            self.direct_probes.get(ssid),
            Some(dp) if dp.client != client
                && at.saturating_since(dp.at) <= self.params.correlation_window
        )
    }

    /// `true` if `ssid` was directly probed by this very client recently —
    /// in which case a directed answer is what a legitimate AP would send.
    fn is_own_request(&self, at: SimTime, ssid: &Ssid, client: MacAddr) -> bool {
        matches!(
            self.direct_probes.get(ssid),
            Some(dp) if dp.client == client
                && at.saturating_since(dp.at) <= self.params.correlation_window
        )
    }

    fn observe_response(&mut self, at: SimTime, response: &ProbeResponse) {
        let replay = self.is_replay(at, &response.ssid, response.destination);
        let bait = matches!(
            self.broadcasters.get(&response.destination),
            Some(&t) if at.saturating_since(t) <= self.params.broadcast_reply_window
        ) && !self.is_own_request(at, &response.ssid, response.destination);
        let bait_wording = self.db.matches_bait(&response.ssid);
        let downgrade = self
            .db
            .is_downgrade(&response.ssid, response.capabilities.privacy);

        let profile = self.profile_mut(at, response.bssid);
        profile.responses += 1;
        profile.downgrade |= downgrade;
        profile.note_advertised(&response.ssid, bait_wording);
        if response.ie_fingerprint() == ROGUE_MINIMAL_IE {
            profile.rogue_ie = true;
        }
        if bait && !profile.window_bait.contains(&response.ssid) {
            // Arc refcount bump into the per-window bait evidence set.
            // ch-lint: allow(ssid-clone)
            profile.window_bait.insert(response.ssid.clone());
        }
        if replay {
            profile.window_replays = profile.window_replays.saturating_add(1);
        }
        self.evaluate(at, response.bssid);
    }

    fn observe_beacon(&mut self, at: SimTime, beacon: &Beacon) {
        let replay = self.is_replay(at, &beacon.ssid, beacon.bssid);
        let bait_wording = self.db.matches_bait(&beacon.ssid);
        let downgrade = self
            .db
            .is_downgrade(&beacon.ssid, beacon.capabilities.privacy);

        let profile = self.profile_mut(at, beacon.bssid);
        profile.beacons += 1;
        profile.downgrade |= downgrade;
        profile.note_interval(beacon.interval_tu);
        profile.note_advertised(&beacon.ssid, bait_wording);
        if replay {
            profile.window_replays = profile.window_replays.saturating_add(1);
        }
        self.evaluate(at, beacon.bssid);
    }

    fn observe_deauth(&mut self, at: SimTime, deauth: &Deauthentication) {
        let profile = self.profile_mut(at, deauth.source);
        profile.window_deauthed.insert(deauth.destination);
        self.evaluate(at, deauth.source);
    }

    /// The profile of `bssid`, created on its first frame and rolled to
    /// the evidence window containing `at`.
    fn profile_mut(&mut self, at: SimTime, bssid: MacAddr) -> &mut ApProfile {
        let denylisted = self.db.oui_denylisted(bssid.oui());
        let profile = self
            .profiles
            .entry(bssid)
            .or_insert_with(|| ApProfile::new(at, denylisted, bssid.is_locally_administered()));
        profile.roll_window(at.bucket(self.spec.window));
        profile
    }

    fn evaluate(&mut self, at: SimTime, bssid: MacAddr) {
        let Some(threshold) = self.spec.strictness.threshold() else {
            return;
        };
        let Some(profile) = self.profiles.get_mut(&bssid) else {
            return;
        };
        if profile.window_flagged {
            return;
        }
        let (mut score, mut reasons) = self.db.score(profile);
        let bait = profile.window_bait.len();
        if bait >= self.params.bait_min {
            score += (bait as u32).min(self.params.bait_points_cap);
            reasons.insert(Reason::BroadcastBait);
        }
        if profile.window_replays > 0 {
            score += profile.window_replays.min(self.params.replay_points_cap);
            reasons.insert(Reason::PnlReplay);
        }
        if profile.advertised.len() >= self.params.colocation_min {
            score += self.params.colocation_points;
            reasons.insert(Reason::ImplausibleCoLocation);
        }
        if profile.window_deauthed.len() >= DEAUTH_FLOOD_VICTIMS {
            score += DEAUTH_FLOOD_POINTS;
            reasons.insert(Reason::DeauthFlood);
        }
        if score >= threshold {
            profile.window_flagged = true;
            self.first_flags.entry(bssid).or_insert(at);
            self.verdicts.push(DetectionVerdict {
                at,
                bssid,
                score,
                reasons,
            });
        }
    }

    /// Every verdict emitted so far, in observation order.
    pub fn verdicts(&self) -> &[DetectionVerdict] {
        &self.verdicts
    }

    /// When `bssid` was first flagged, if ever.
    pub fn first_flag(&self, bssid: MacAddr) -> Option<SimTime> {
        self.first_flags.get(&bssid).copied()
    }

    /// `true` if `bssid` has ever been flagged.
    pub fn is_flagged(&self, bssid: MacAddr) -> bool {
        self.first_flags.contains_key(&bssid)
    }

    /// Distinct flagged APs.
    pub fn flagged_count(&self) -> usize {
        self.first_flags.len()
    }

    /// Iterates over flagged APs and their first-flag times
    /// (deterministic-hasher map order — stable for identical streams).
    pub fn flagged(&self) -> impl Iterator<Item = (MacAddr, SimTime)> + '_ {
        self.first_flags.iter().map(|(b, t)| (*b, *t))
    }

    /// Frames observed so far.
    pub fn frames_observed(&self) -> u64 {
        self.frames
    }

    /// Distinct APs profiled so far.
    pub fn profiled_count(&self) -> usize {
        self.profiles.len()
    }

    /// The profile accumulated for `bssid`, if it ever transmitted.
    pub fn profile(&self, bssid: MacAddr) -> Option<&ApProfile> {
        self.profiles.get(&bssid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::channel::Channel;
    use ch_wifi::mgmt::{CapabilityInfo, ReasonCode};

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    fn client(i: u8) -> MacAddr {
        MacAddr::from_index([0xac, 0x37, 0x43], u32::from(i))
    }

    fn rogue() -> MacAddr {
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1)
    }

    fn legit() -> MacAddr {
        MacAddr::from_index([0x00, 0x90, 0x4c], 9)
    }

    fn response(bssid: MacAddr, dest: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
            bssid,
            dest,
            ssid(name),
            Channel::default(),
        ))
    }

    fn beacon(bssid: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::Beacon(Beacon::open(bssid, ssid(name), Channel::default()))
    }

    fn broadcast(source: MacAddr) -> MgmtFrame {
        MgmtFrame::ProbeRequest(ProbeRequest::broadcast(source))
    }

    fn direct(source: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::ProbeRequest(ProbeRequest::direct(source, ssid(name)))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The City-Hunter shape: broadcast probe answered with a burst of
    /// distinct unsolicited SSIDs.
    fn drive_cityhunter_burst(detector: &mut Detector, at: SimTime, n: usize) {
        detector.observe(at, &broadcast(client(1)));
        for i in 0..n {
            detector.observe(at, &response(rogue(), client(1), &format!("net-{i}")));
        }
    }

    #[test]
    fn broadcast_bait_heuristic_fires() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        assert!(detector.is_flagged(rogue()));
        let v = detector.verdicts()[0];
        assert!(v.reasons.contains(Reason::BroadcastBait));
        assert!(v.reasons.contains(Reason::DenylistedOui));
        assert_eq!(detector.first_flag(rogue()), Some(t(10)));
    }

    #[test]
    fn pnl_replay_heuristic_fires() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // Client 1 probes for its PNL entry; the rogue replays it to
        // client 2 (MANA aggregation).
        detector.observe(t(5), &direct(client(1), "HomeNet"));
        for i in 0..4 {
            detector.observe(t(6 + i), &response(rogue(), client(2), "HomeNet"));
        }
        assert!(detector.is_flagged(rogue()));
        assert!(detector.verdicts()[0].reasons.contains(Reason::PnlReplay));
    }

    #[test]
    fn answering_the_probing_client_is_not_bait_or_replay() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // A legit AP answering a client's own directed probe.
        detector.observe(t(5), &direct(client(1), "CSL"));
        detector.observe(t(5), &response(legit(), client(1), "CSL"));
        assert!(!detector.is_flagged(legit()));
        let profile = detector.profile(legit()).unwrap();
        assert_eq!(profile.window_bait.len(), 0);
        assert_eq!(profile.window_replays, 0);
    }

    #[test]
    fn silent_responder_signature_fires() {
        let mut detector = Detector::new(DetectorSpec::standard());
        // A *clean-looking* BSSID (vendor OUI, plain SSIDs) that answers
        // directed probes forever without ever beaconing.
        for i in 0..25u64 {
            detector.observe(t(i), &direct(client(1), "Corp"));
            detector.observe(t(i), &response(legit(), client(1), "Corp"));
        }
        let profile = detector.profile(legit()).unwrap();
        assert_eq!(profile.beacons, 0);
        assert!(profile.responses >= 20);
        // Silent responder (3) + rogue IE (1) alone stay under the standard
        // threshold; a paranoid detector flags it.
        assert!(!detector.is_flagged(legit()));
        let mut paranoid = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..25u64 {
            paranoid.observe(t(i), &direct(client(1), "Corp"));
            paranoid.observe(t(i), &response(legit(), client(1), "Corp"));
        }
        assert!(paranoid.is_flagged(legit()));
        assert!(paranoid.verdicts()[0]
            .reasons
            .contains(Reason::SilentResponder));
    }

    #[test]
    fn odd_beacon_interval_signature_fires() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        let mut b = Beacon::open(legit(), ssid("Weird"), Channel::default());
        b.interval_tu = 400;
        // Odd interval (2) alone is under even the paranoid threshold;
        // pair it with bait wording (2) to cross it.
        let mut bait = Beacon::open(legit(), ssid("Free WiFi by Weird"), Channel::default());
        bait.interval_tu = 400;
        detector.observe(t(1), &MgmtFrame::Beacon(b));
        assert!(!detector.is_flagged(legit()));
        detector.observe(t(2), &MgmtFrame::Beacon(bait));
        assert!(detector.is_flagged(legit()));
        let reasons = detector.verdicts()[0].reasons;
        assert!(reasons.contains(Reason::OddBeaconInterval));
        assert!(reasons.contains(Reason::BaitSsid));
    }

    #[test]
    fn colocation_heuristic_fires_via_beacons() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..10 {
            detector.observe(t(i), &beacon(legit(), &format!("venue-net-{i}")));
        }
        assert!(detector.is_flagged(legit()));
        assert!(detector.verdicts()[0]
            .reasons
            .contains(Reason::ImplausibleCoLocation));
    }

    #[test]
    fn legit_ap_baseline_never_flagged_at_standard() {
        // False-positive pin: a vendor-OUI AP beaconing one SSID at 100 TU
        // and answering only its own directed probes stays clean at
        // standard strictness, even with heavy client probing around it.
        let mut detector = Detector::new(DetectorSpec::standard());
        for i in 0..600u64 {
            detector.observe(t(i), &beacon(legit(), "CSL"));
            detector.observe(t(i), &broadcast(client((i % 7) as u8)));
            detector.observe(t(i), &direct(client((i % 7) as u8), "CSL"));
            detector.observe(t(i), &response(legit(), client((i % 7) as u8), "CSL"));
        }
        assert!(!detector.is_flagged(legit()));
        assert!(detector.verdicts().is_empty());
    }

    #[test]
    fn lenient_flags_less_than_paranoid() {
        let mut counts = Vec::new();
        for strictness in [
            Strictness::Lenient,
            Strictness::Standard,
            Strictness::Paranoid,
        ] {
            let mut detector = Detector::new(DetectorSpec::with_strictness(strictness));
            detector.observe(t(5), &direct(client(1), "HomeNet"));
            for i in 0..3 {
                detector.observe(t(6 + i), &response(legit(), client(2), "HomeNet"));
            }
            drive_cityhunter_burst(&mut detector, t(20), 12);
            counts.push(detector.flagged_count());
        }
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
        // The rogue burst is caught everywhere; the replaying legit AP only
        // at paranoid.
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 2);
    }

    #[test]
    fn at_most_one_verdict_per_window() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        drive_cityhunter_burst(&mut detector, t(20), 12);
        assert_eq!(detector.verdicts().len(), 1);
        // A new window re-arms the verdict.
        drive_cityhunter_burst(&mut detector, t(70), 12);
        assert_eq!(detector.verdicts().len(), 2);
    }

    #[test]
    fn windowed_evidence_resets() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        let before = detector.profile(rogue()).unwrap().window_bait.len();
        assert!(before > 0);
        // One lone response in a later window: bait evidence starts over.
        detector.observe(t(130), &broadcast(client(1)));
        detector.observe(t(130), &response(rogue(), client(1), "net-0"));
        assert_eq!(detector.profile(rogue()).unwrap().window_bait.len(), 1);
    }

    #[test]
    fn disabled_detector_observes_nothing() {
        let mut detector = Detector::new(DetectorSpec::disabled());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        assert_eq!(detector.frames_observed(), 0);
        assert_eq!(detector.flagged_count(), 0);
        assert!(DetectorSpec::disabled().is_disabled());
        assert!(!DetectorSpec::standard().is_disabled());
    }

    #[test]
    fn verdict_stream_is_deterministic() {
        let run = || {
            let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
            detector.observe(t(5), &direct(client(1), "HomeNet"));
            for i in 0..4 {
                detector.observe(t(6 + i), &response(rogue(), client(2), "HomeNet"));
            }
            drive_cityhunter_burst(&mut detector, t(30), 15);
            for i in 0..5 {
                detector.observe(t(40 + i), &beacon(legit(), "CSL"));
            }
            detector.verdicts().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn downgrade_fires_only_on_remembered_protected() {
        let db = SignatureDb {
            protected_ssids: vec![ssid("Corp")],
            ..SignatureDb::standard()
        };
        let mut detector =
            Detector::with_db(DetectorSpec::standard(), db, BehaviorParams::default());
        // An open network the client never knew as protected is fine, and
        // so is a properly protected beacon of the remembered one.
        detector.observe(t(1), &direct(client(1), "Open-Cafe"));
        detector.observe(t(1), &response(legit(), client(1), "Open-Cafe"));
        let mut protected = Beacon::open(legit(), ssid("Corp"), Channel::default());
        protected.capabilities = CapabilityInfo::protected_ap();
        detector.observe(t(2), &MgmtFrame::Beacon(protected));
        assert!(detector.verdicts().is_empty());
        // The remembered network offered open: flagged on that frame.
        detector.observe(t(3), &direct(client(1), "Corp"));
        detector.observe(t(3), &response(legit(), client(1), "Corp"));
        assert_eq!(detector.first_flag(legit()), Some(t(3)));
        assert!(detector.verdicts()[0]
            .reasons
            .contains(Reason::SecurityDowngrade));
        // The stock database remembers nothing, so the same frame is not a
        // downgrade there.
        let mut stock = Detector::new(DetectorSpec::standard());
        stock.observe(t(3), &direct(client(1), "Corp"));
        stock.observe(t(3), &response(legit(), client(1), "Corp"));
        assert!(!stock.profile(legit()).unwrap().downgrade);
        assert!(stock.verdicts().is_empty());
    }

    fn deauth(source: u8, victim: u8) -> MgmtFrame {
        MgmtFrame::Deauthentication(Deauthentication {
            source: MacAddr::from_index([0x00, 0x90, 0x4c], u32::from(source)),
            destination: client(victim),
            reason: ReasonCode::PrevAuthExpired,
        })
    }

    #[test]
    fn deauth_flood_fires_at_its_threshold() {
        let source = MacAddr::from_index([0x00, 0x90, 0x4c], 7);
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Lenient));
        for victim in 1..DEAUTH_FLOOD_VICTIMS as u8 {
            detector.observe(t(u64::from(victim) * 10), &deauth(7, victim));
        }
        assert!(!detector.is_flagged(source), "one victim short");
        detector.observe(t(55), &deauth(7, 99));
        assert_eq!(detector.first_flag(source), Some(t(55)));
        let verdict = detector.verdicts()[0];
        assert!(verdict.reasons.contains(Reason::DeauthFlood));
        // One verdict per window, even on continued flooding.
        detector.observe(t(58), &deauth(7, 100));
        assert_eq!(detector.verdicts().len(), 1);
    }

    #[test]
    fn deauth_flood_tolerates_occasional_deauths() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // Five victims, one per minute: no window holds more than one.
        for victim in 1..=5u8 {
            detector.observe(t(u64::from(victim) * 60), &deauth(7, victim));
        }
        // One victim deauthenticated over and over is one victim.
        for i in 0..20u64 {
            detector.observe(t(400 + i), &deauth(7, 1));
        }
        assert!(detector.verdicts().is_empty());
    }

    #[test]
    fn deauth_flood_tracks_sources_independently() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for victim in 1..DEAUTH_FLOOD_VICTIMS as u8 {
            detector.observe(t(u64::from(victim)), &deauth(7, victim));
            detector.observe(t(u64::from(victim)), &deauth(8, victim));
        }
        assert!(detector.verdicts().is_empty(), "neither source crossed");
    }

    #[test]
    fn colocation_ignores_repeats_of_one_ssid() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..50u64 {
            detector.observe(t(i), &beacon(legit(), "SameNet"));
        }
        assert_eq!(detector.profile(legit()).unwrap().advertised_ssids(), 1);
        assert!(detector.verdicts().is_empty());
    }

    /// A vendor-OUI AP answering its probers' own directed probes with 30
    /// distinct SSIDs across three evidence windows, optionally beaconing.
    fn multi_ssid_responder(beaconing: bool) -> Detector {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        if beaconing {
            detector.observe(t(0), &beacon(legit(), "Lobby"));
        }
        for i in 0..30u64 {
            let name = format!("net-{i}");
            detector.observe(t(i * 6), &direct(client(1), &name));
            detector.observe(t(i * 6), &response(legit(), client(1), &name));
        }
        detector
    }

    #[test]
    fn beaconing_evades_silent_responder_but_not_colocation() {
        let silent = multi_ssid_responder(false)
            .verdicts()
            .last()
            .unwrap()
            .reasons;
        assert!(silent.contains(Reason::SilentResponder));
        assert!(silent.contains(Reason::ImplausibleCoLocation));
        let beaconing = multi_ssid_responder(true)
            .verdicts()
            .last()
            .unwrap()
            .reasons;
        assert!(!beaconing.contains(Reason::SilentResponder));
        assert!(beaconing.contains(Reason::ImplausibleCoLocation));
    }

    #[test]
    fn karma_invisible_without_direct_probes() {
        let mut detector = Detector::new(DetectorSpec::standard());
        // KARMA only echoes directed probes: a room that only broadcasts
        // gives it nothing to transmit, so there is nothing to profile.
        for i in 0..60u8 {
            detector.observe(t(u64::from(i)), &broadcast(client(i)));
        }
        assert_eq!(detector.profiled_count(), 0);
        // Echoing a prober's own open network is what a legitimate AP
        // does: even the denylisted OUI stays under the threshold.
        detector.observe(t(61), &direct(client(1), "HomeNet"));
        detector.observe(t(61), &response(rogue(), client(1), "HomeNet"));
        assert!(detector.profile(rogue()).is_some());
        assert!(detector.verdicts().is_empty());
    }

    #[test]
    fn strictness_slugs_roundtrip() {
        for s in [
            Strictness::Off,
            Strictness::Lenient,
            Strictness::Standard,
            Strictness::Paranoid,
        ] {
            assert_eq!(Strictness::from_slug(s.slug()), Some(s));
        }
        assert_eq!(Strictness::from_slug("bogus"), None);
        assert!(Strictness::Off.threshold().is_none());
        assert!(Strictness::Paranoid.threshold() < Strictness::Lenient.threshold());
    }
}
