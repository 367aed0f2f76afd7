//! Countermeasures against live deployments: the `ch-detect` detector
//! listens to full experiments, as the runner's in-venue monitor and as a
//! frame-observer tap.

use city_hunter::detect::{Detector, DetectorSpec, Reason};
use city_hunter::prelude::*;
use city_hunter::scenarios::runner::{run_experiment_observed, FrameObserver};
use city_hunter::sim::{SimDuration, SimTime};
use city_hunter::wifi::mgmt::MgmtFrame;

/// A detector fed every frame the runner delivers, deauths included.
struct DetectorTap(Detector);

impl FrameObserver for DetectorTap {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        self.0.observe(at, frame);
    }
}

fn config(deauth: bool, seed: u64) -> RunConfig {
    RunConfig {
        venue: VenueKind::Canteen,
        start_hour: 12,
        duration: SimDuration::from_mins(10),
        attacker: AttackerKind::CityHunter(CityHunterConfig {
            deauth,
            ..CityHunterConfig::default()
        }),
        seed,
        lure_budget: None,
        loss: None,
        population: None,
        arrival_multiplier: None,
        fault: None,
        detector: None,
    }
}

/// Runs `config` with a standard detector on the frame-observer tap.
fn tapped_run(data: &CityData, config: &RunConfig) -> (ExperimentMetrics, Detector) {
    let mut tap = DetectorTap(Detector::new(DetectorSpec::standard()));
    let metrics = run_experiment_observed(data, config, &mut tap);
    (metrics, tap.0)
}

fn flood_verdicts(detector: &Detector) -> usize {
    detector
        .verdicts()
        .iter()
        .filter(|v| v.reasons.contains(Reason::DeauthFlood))
        .count()
}

#[test]
fn live_city_hunter_detected_before_first_victim() {
    let data = CityData::standard(0xDEF1);
    let config = RunConfig {
        detector: Some(DetectorSpec::standard()),
        ..config(false, 1)
    };
    let metrics = run_experiment(&data, &config);
    let report = metrics.detection.expect("the monitor was armed");
    let first_flag = report
        .time_to_detect()
        .expect("City-Hunter must be detected");
    // Detection precedes the first successful lure.
    let first_hit = metrics
        .clients()
        .filter_map(|(_, rec)| rec.hit.as_ref().map(|h| h.at))
        .min();
    if let Some(hit_at) = first_hit {
        assert!(
            first_flag <= hit_at,
            "first verdict {first_flag} after first victim {hit_at}"
        );
    }
    // The monitor names exactly one rogue — the attacker — and none of
    // the legitimate neighbourhood APs.
    assert_eq!(report.flagged, 1, "{report:?}");
    assert_eq!(report.flagged_rogue, 1, "{report:?}");
}

#[test]
fn deauth_extension_trips_the_flood_detector() {
    let data = CityData::standard(0xDEF2);
    let (metrics, detector) = tapped_run(&data, &config(true, 2));
    assert!(metrics.deauth_frames >= 5, "{}", metrics.deauth_frames);
    assert!(
        flood_verdicts(&detector) >= 1,
        "deauth flood must be flagged: {:?}",
        detector.verdicts()
    );
    // The flood verdicts point at the spoofed source, not the rogue.
    let rogue = AttackerKind::default_bssid();
    assert!(detector
        .verdicts()
        .iter()
        .filter(|v| v.reasons.contains(Reason::DeauthFlood))
        .all(|v| v.bssid != rogue));
}

#[test]
fn no_deauth_no_flood_alarm() {
    let data = CityData::standard(0xDEF3);
    let (_, detector) = tapped_run(&data, &config(false, 3));
    assert!(!detector.verdicts().is_empty(), "the rogue is still caught");
    assert_eq!(flood_verdicts(&detector), 0, "no deauth, no flood verdict");
}
