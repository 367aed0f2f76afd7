//! Differential test of the streaming checkpoint writer.
//!
//! `checkpoint::render_into` writes what `checkpoint::to_json(..).render()`
//! renders, without building the tree. For every attacker generation,
//! plain and evasive, a short stream runs through the service and, at
//! every checkpoint boundary, the two must agree byte for byte. The
//! stream carries direct probes for SSIDs that need `\"`, `\\` and
//! `\u00XX` escapes, and the committed byte count crosses 2^53 (a value
//! the codec string-encodes, as it does City-Hunter's RNG words).

use std::sync::OnceLock;

use ch_attack::{AttackerSpec, CityHunterConfig, EvasionSpec, RotationSpec, ThrottleSpec};
use ch_scenarios::{CityData, RunConfig};
use ch_serve::{checkpoint, EventSource, InputEvent, ServeConfig, Service};
use ch_sim::SimDuration;
use ch_wifi::{MacAddr, Ssid};

const SEED: u64 = 0x5EED;
const CHECKPOINT_EVERY: u64 = 16;

fn city() -> &'static CityData {
    static CITY: OnceLock<CityData> = OnceLock::new();
    CITY.get_or_init(|| CityData::standard(SEED))
}

/// SSIDs whose JSON form needs every kind of escape.
const AWKWARD_SSIDS: [&str; 3] = ["say \"hi\"", "back\\slash\ttab", "ctl\u{1}\u{1f}\n"];

/// An 8-minute canteen stream with a direct probe for an awkward SSID
/// after every 40th event, timed with the event before it.
fn stream() -> &'static [InputEvent] {
    static STREAM: OnceLock<Vec<InputEvent>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let spec = AttackerSpec::CityHunter(CityHunterConfig::default());
        let mut run = RunConfig::canteen_30min(spec, SEED);
        run.duration = SimDuration::from_mins(8);
        let source = EventSource::from_sim(city(), &run);
        let mut events = Vec::new();
        for (i, event) in source.events().iter().enumerate() {
            events.push(event.clone());
            if i % 40 == 39 {
                let k = i / 40;
                events.push(InputEvent::Probe {
                    t_us: event.t_us(),
                    client: MacAddr::new([2, 0, 0, 0xee, 0, k as u8]),
                    ssid: Some(Ssid::new(AWKWARD_SSIDS[k % AWKWARD_SSIDS.len()]).unwrap()),
                });
            }
        }
        events
    })
}

fn evasive(base: AttackerSpec) -> AttackerSpec {
    AttackerSpec::Evasive {
        base: Box::new(base),
        evasion: EvasionSpec {
            rotation: Some(RotationSpec {
                period: SimDuration::from_mins(2),
            }),
            beacon_clone: true,
            throttle: Some(ThrottleSpec {
                max_responses: 30,
                window: SimDuration::from_secs(10),
            }),
        },
    }
}

/// Runs the stream and compares the two renderings at every boundary;
/// returns the renderings' concatenation for content checks.
fn assert_writer_matches_reference(spec: AttackerSpec) -> String {
    let name = format!("{spec:?}");
    let mut service = Service::new(city(), ServeConfig::new(spec, SEED));
    let mut emit = Vec::new();
    let mut buf = String::new();
    let mut seen = String::new();
    let mut boundaries = 0;
    for event in stream() {
        service.process(event, &mut emit);
        let acked = service.acked();
        if !acked.is_multiple_of(CHECKPOINT_EVERY) {
            continue;
        }
        // Committed bytes below, at and past 2^53.
        let out_bytes = match boundaries % 3 {
            0 => acked * 1_000,
            1 => 1 << 53,
            _ => (1 << 53) + acked,
        };
        let reference = checkpoint::to_json(&service, out_bytes).render();
        buf.clear();
        buf.push_str("kept|");
        checkpoint::render_into(&service, out_bytes, &mut buf).unwrap();
        assert!(
            buf.strip_prefix("kept|") == Some(reference.as_str()),
            "{name}: streaming checkpoint differs from the reference at event {acked}"
        );
        boundaries += 1;
        seen.push_str(&reference);
    }
    assert!(boundaries >= 10, "{name}: only {boundaries} boundaries");
    seen
}

fn assert_escapes_exercised(rendered: &str) {
    for escaped in [
        "say \\\"hi\\\"",
        "back\\\\slash\\ttab",
        "ctl\\u0001\\u001f\\n",
    ] {
        assert!(
            rendered.contains(escaped),
            "no checkpoint holds `{escaped}`"
        );
    }
    assert!(rendered.contains("\"out_bytes\":\"900719925474"));
}

/// `true` if some rendered `rng` list holds a word past 2^53, which the
/// codec carries as a decimal string.
fn has_string_rng_word(rendered: &str) -> bool {
    rendered.split("\"rng\":[").skip(1).any(|rest| {
        rest.split(']')
            .next()
            .is_some_and(|words| words.contains('"'))
    })
}

#[test]
fn karma_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(AttackerSpec::Karma));
}

#[test]
fn mana_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(AttackerSpec::Mana));
}

#[test]
fn prelim_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(AttackerSpec::Prelim));
}

#[test]
fn cityhunter_writer_matches_reference() {
    let rendered =
        assert_writer_matches_reference(AttackerSpec::CityHunter(CityHunterConfig::default()));
    assert_escapes_exercised(&rendered);
    assert!(has_string_rng_word(&rendered), "no string-encoded RNG word");
}

#[test]
fn evasive_karma_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(evasive(
        AttackerSpec::Karma,
    )));
}

#[test]
fn evasive_mana_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(evasive(
        AttackerSpec::Mana,
    )));
}

#[test]
fn evasive_prelim_writer_matches_reference() {
    assert_escapes_exercised(&assert_writer_matches_reference(evasive(
        AttackerSpec::Prelim,
    )));
}

#[test]
fn evasive_cityhunter_writer_matches_reference() {
    let rendered = assert_writer_matches_reference(evasive(AttackerSpec::CityHunter(
        CityHunterConfig::default(),
    )));
    assert_escapes_exercised(&rendered);
    assert!(has_string_rng_word(&rendered), "no string-encoded RNG word");
}
