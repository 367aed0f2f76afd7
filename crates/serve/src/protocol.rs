//! The `ch-serve-v1` NDJSON wire protocol.
//!
//! One JSON object per line, every line versioned with `"v":"ch-serve-v1"`
//! and discriminated by `"ev"`. Client-side air traffic flows *in*
//! ([`InputEvent`]: probe-request scans and association attempts) and the
//! attacker's reactions flow *out* ([`OutputEvent`]: lures, beacons,
//! periodic stats, checkpoint marks).
//!
//! The codec is strict on emit (fixed key order, so two identical runs
//! produce byte-identical streams) and defensive on consume: any line
//! that is not valid JSON, carries the wrong version, or is missing /
//! mistypes a field decodes to a typed [`ProtocolError`] — never a panic
//! — so the service can count-and-skip garbage input.

use std::fmt;

use ch_attack::{LureLane, LureSource};
use ch_fleet::json::{render_number, render_string};
use ch_fleet::Json;
use ch_wifi::{MacAddr, Ssid};

/// The wire protocol version tag every line carries.
pub const PROTOCOL_VERSION: &str = "ch-serve-v1";

/// One client-side event entering the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputEvent {
    /// A probe request at `t_us` microseconds of stream time; `ssid` is
    /// `None` for a broadcast (wildcard) scan and `Some` for a direct
    /// probe.
    Probe {
        /// Stream timestamp, microseconds.
        t_us: u64,
        /// Probing client.
        client: MacAddr,
        /// Requested SSID; `None` = broadcast.
        ssid: Option<Ssid>,
    },
    /// A client associating to one of the attacker's advertised SSIDs.
    Assoc {
        /// Stream timestamp, microseconds.
        t_us: u64,
        /// Associating client.
        client: MacAddr,
        /// The SSID the client joined.
        ssid: Ssid,
    },
}

impl InputEvent {
    /// The event's stream timestamp in microseconds.
    pub fn t_us(&self) -> u64 {
        match self {
            InputEvent::Probe { t_us, .. } | InputEvent::Assoc { t_us, .. } => *t_us,
        }
    }
}

/// One service reaction leaving the service.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputEvent {
    /// A lure (probe response) offered to a client.
    Lure {
        /// Virtual completion time, microseconds.
        t_us: u64,
        /// Target client.
        client: MacAddr,
        /// Advertised SSID.
        ssid: Ssid,
        /// Provenance of the SSID.
        source: LureSource,
        /// Selection lane that picked it.
        lane: LureLane,
    },
    /// A beacon the (evasive) attacker put on the air.
    Beacon {
        /// Virtual emission time, microseconds.
        t_us: u64,
        /// Transmitting BSSID.
        bssid: MacAddr,
        /// Beaconed SSID.
        ssid: Ssid,
    },
    /// A periodic counters snapshot.
    Stats {
        /// Virtual time of the snapshot, microseconds.
        t_us: u64,
        /// The counters.
        stats: ServiceStats,
    },
    /// A checkpoint was committed covering the first `acked` input events.
    Checkpoint {
        /// Virtual time of the checkpoint, microseconds.
        t_us: u64,
        /// Input events covered (processed or counted-shed).
        acked: u64,
    },
}

/// The service's monotone counters. Everything here is derived from the
/// input stream alone (virtual time, no wall clock), so the counters are
/// deterministic, checkpointable, and identical across a kill-and-recover
/// run and an uninterrupted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Input events consumed (processed + shed).
    pub events: u64,
    /// Probe events processed.
    pub probes: u64,
    /// Association events processed.
    pub assocs: u64,
    /// Lures emitted.
    pub lures: u64,
    /// Associations matched to an offered lure ([`ch_attack::Attacker::on_hit`] fired).
    pub hits: u64,
    /// Associations with no matching offered lure — counted, not dropped
    /// silently.
    pub unmatched_assocs: u64,
    /// Events shed because the ingest ring was full — explicit
    /// backpressure, never a silent drop.
    pub shed: u64,
    /// Events whose virtual latency blew the per-event deadline.
    pub deadline_misses: u64,
    /// Beacons emitted.
    pub beacons: u64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Malformed source records counted-and-skipped before ingest.
    pub malformed: u64,
}

/// Field order shared by the stats codec and the struct's wire shape.
const STATS_FIELDS: &[&str] = &[
    "events",
    "probes",
    "assocs",
    "lures",
    "hits",
    "unmatched_assocs",
    "shed",
    "deadline_misses",
    "beacons",
    "checkpoints",
    "malformed",
];

impl ServiceStats {
    fn field(&self, name: &str) -> u64 {
        match name {
            "events" => self.events,
            "probes" => self.probes,
            "assocs" => self.assocs,
            "lures" => self.lures,
            "hits" => self.hits,
            "unmatched_assocs" => self.unmatched_assocs,
            "shed" => self.shed,
            "deadline_misses" => self.deadline_misses,
            "beacons" => self.beacons,
            "checkpoints" => self.checkpoints,
            "malformed" => self.malformed,
            _ => 0,
        }
    }

    fn field_mut(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "events" => &mut self.events,
            "probes" => &mut self.probes,
            "assocs" => &mut self.assocs,
            "lures" => &mut self.lures,
            "hits" => &mut self.hits,
            "unmatched_assocs" => &mut self.unmatched_assocs,
            "shed" => &mut self.shed,
            "deadline_misses" => &mut self.deadline_misses,
            "beacons" => &mut self.beacons,
            "checkpoints" => &mut self.checkpoints,
            "malformed" => &mut self.malformed,
            _ => return None,
        })
    }

    /// The counters as a JSON object (fixed key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            STATS_FIELDS
                .iter()
                .map(|&name| (name.to_string(), Json::from_u64(self.field(name))))
                .collect(),
        )
    }

    /// Appends [`ServiceStats::to_json`]'s rendering to `out` without
    /// building the tree.
    pub fn render_into(&self, out: &mut String) {
        out.push('{');
        for (i, &name) in STATS_FIELDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_string(name, out);
            out.push(':');
            render_number(self.field(name) as f64, out);
        }
        out.push('}');
    }

    /// Rebuilds the counters from [`ServiceStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingField`]/[`ProtocolError::BadField`] when a
    /// counter is absent or not a number.
    pub fn from_json(value: &Json) -> Result<ServiceStats, ProtocolError> {
        let mut stats = ServiceStats::default();
        for &name in STATS_FIELDS {
            let field = value
                .get(name)
                .ok_or(ProtocolError::MissingField("stats counter"))?
                .as_u64()
                .ok_or(ProtocolError::BadField("stats counter"))?;
            if let Some(slot) = stats.field_mut(name) {
                *slot = field;
            }
        }
        Ok(stats)
    }

    /// One status line for the service's stderr.
    pub fn render_line(&self) -> String {
        format!(
            "events={} probes={} assocs={} lures={} hits={} unmatched={} shed={} \
             deadline_misses={} beacons={} checkpoints={} malformed={}",
            self.events,
            self.probes,
            self.assocs,
            self.lures,
            self.hits,
            self.unmatched_assocs,
            self.shed,
            self.deadline_misses,
            self.beacons,
            self.checkpoints,
            self.malformed,
        )
    }
}

/// Why a wire line failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line is not valid JSON at all.
    NotJson(String),
    /// The line's `"v"` tag is absent or not [`PROTOCOL_VERSION`].
    WrongVersion,
    /// The `"ev"` discriminant is absent or unknown.
    UnknownEvent,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but the wrong type or out of range.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NotJson(reason) => write!(f, "not json: {reason}"),
            ProtocolError::WrongVersion => {
                write!(
                    f,
                    "missing or wrong protocol version (want {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::UnknownEvent => write!(f, "missing or unknown `ev` discriminant"),
            ProtocolError::MissingField(name) => write!(f, "missing field `{name}`"),
            ProtocolError::BadField(name) => write!(f, "bad field `{name}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Wire name of a [`LureSource`].
pub fn source_name(source: LureSource) -> &'static str {
    match source {
        LureSource::Wigle => "wigle",
        LureSource::DirectProbe => "direct-probe",
        LureSource::Carrier => "carrier",
    }
}

/// Parses a [`LureSource`] wire name.
pub fn parse_source(name: &str) -> Option<LureSource> {
    Some(match name {
        "wigle" => LureSource::Wigle,
        "direct-probe" => LureSource::DirectProbe,
        "carrier" => LureSource::Carrier,
        _ => return None,
    })
}

/// Wire name of a [`LureLane`].
pub fn lane_name(lane: LureLane) -> &'static str {
    match lane {
        LureLane::Popularity => "popularity",
        LureLane::PopularityGhost => "popularity-ghost",
        LureLane::Freshness => "freshness",
        LureLane::FreshnessGhost => "freshness-ghost",
        LureLane::Database => "database",
        LureLane::DirectReply => "direct-reply",
    }
}

/// Parses a [`LureLane`] wire name.
pub fn parse_lane(name: &str) -> Option<LureLane> {
    Some(match name {
        "popularity" => LureLane::Popularity,
        "popularity-ghost" => LureLane::PopularityGhost,
        "freshness" => LureLane::Freshness,
        "freshness-ghost" => LureLane::FreshnessGhost,
        "database" => LureLane::Database,
        "direct-reply" => LureLane::DirectReply,
        _ => return None,
    })
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Encodes one input event as a wire line (no trailing newline).
pub fn encode_input(event: &InputEvent) -> String {
    match event {
        InputEvent::Probe { t_us, client, ssid } => {
            let mut fields = vec![
                ("v", Json::str(PROTOCOL_VERSION)),
                ("ev", Json::str("probe")),
                ("t_us", Json::from_u64(*t_us)),
                ("client", Json::str(client.to_string())),
            ];
            if let Some(ssid) = ssid {
                fields.push(("ssid", Json::str(ssid.as_str())));
            }
            obj(fields).render()
        }
        InputEvent::Assoc { t_us, client, ssid } => obj(vec![
            ("v", Json::str(PROTOCOL_VERSION)),
            ("ev", Json::str("assoc")),
            ("t_us", Json::from_u64(*t_us)),
            ("client", Json::str(client.to_string())),
            ("ssid", Json::str(ssid.as_str())),
        ])
        .render(),
    }
}

/// Encodes one output event as a wire line (no trailing newline).
pub fn encode_output(event: &OutputEvent) -> String {
    let mut line = String::new();
    encode_output_into(event, &mut line);
    line
}

/// Appends one output event's wire line (no trailing newline) to `out`,
/// field by field, with no intermediate [`Json`] tree. Same bytes as
/// rendering the event's object through [`Json::render`]: numbers and
/// strings go through the same `ch_fleet::json` writers.
pub fn encode_output_into(event: &OutputEvent, out: &mut String) {
    let (ev, t_us) = match event {
        OutputEvent::Lure { t_us, .. } => ("lure", t_us),
        OutputEvent::Beacon { t_us, .. } => ("beacon", t_us),
        OutputEvent::Stats { t_us, .. } => ("stats", t_us),
        OutputEvent::Checkpoint { t_us, .. } => ("checkpoint", t_us),
    };
    out.push_str("{\"v\":");
    render_string(PROTOCOL_VERSION, out);
    out.push_str(",\"ev\":");
    render_string(ev, out);
    out.push_str(",\"t_us\":");
    render_number(*t_us as f64, out);
    match event {
        OutputEvent::Lure {
            client,
            ssid,
            source,
            lane,
            ..
        } => {
            out.push_str(",\"client\":");
            render_mac(*client, out);
            out.push_str(",\"ssid\":");
            render_string(ssid.as_str(), out);
            out.push_str(",\"source\":");
            render_string(source_name(*source), out);
            out.push_str(",\"lane\":");
            render_string(lane_name(*lane), out);
        }
        OutputEvent::Beacon { bssid, ssid, .. } => {
            out.push_str(",\"bssid\":");
            render_mac(*bssid, out);
            out.push_str(",\"ssid\":");
            render_string(ssid.as_str(), out);
        }
        OutputEvent::Stats { stats, .. } => {
            out.push_str(",\"stats\":");
            stats.render_into(out);
        }
        OutputEvent::Checkpoint { acked, .. } => {
            out.push_str(",\"acked\":");
            render_number(*acked as f64, out);
        }
    }
    out.push('}');
}

/// Appends `mac` as a quoted JSON string in its `Display` form
/// (`aa:bb:cc:dd:ee:ff`), which needs no escapes.
pub(crate) fn render_mac(mac: MacAddr, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for (i, octet) in mac.octets().into_iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        out.push(char::from(HEX[usize::from(octet >> 4)]));
        out.push(char::from(HEX[usize::from(octet & 0xf)]));
    }
    out.push('"');
}

fn checked_envelope(line: &str) -> Result<(Json, String), ProtocolError> {
    let value = Json::parse(line).map_err(ProtocolError::NotJson)?;
    match value.get("v").and_then(Json::as_str) {
        Some(v) if v == PROTOCOL_VERSION => {}
        _ => return Err(ProtocolError::WrongVersion),
    }
    let ev = value
        .get("ev")
        .and_then(Json::as_str)
        .ok_or(ProtocolError::UnknownEvent)?
        .to_string();
    Ok((value, ev))
}

fn field_t_us(value: &Json) -> Result<u64, ProtocolError> {
    value
        .get("t_us")
        .ok_or(ProtocolError::MissingField("t_us"))?
        .as_u64()
        .ok_or(ProtocolError::BadField("t_us"))
}

fn field_mac(value: &Json, name: &'static str) -> Result<MacAddr, ProtocolError> {
    value
        .get(name)
        .ok_or(ProtocolError::MissingField(name))?
        .as_str()
        .ok_or(ProtocolError::BadField(name))?
        .parse()
        .map_err(|_| ProtocolError::BadField(name))
}

fn field_ssid(value: &Json) -> Result<Ssid, ProtocolError> {
    let text = value
        .get("ssid")
        .ok_or(ProtocolError::MissingField("ssid"))?
        .as_str()
        .ok_or(ProtocolError::BadField("ssid"))?;
    Ssid::new(text).map_err(|_| ProtocolError::BadField("ssid"))
}

/// Decodes one input wire line.
///
/// # Errors
///
/// A typed [`ProtocolError`] on any malformed line; never panics.
pub fn decode_input(line: &str) -> Result<InputEvent, ProtocolError> {
    let (value, ev) = checked_envelope(line)?;
    let t_us = field_t_us(&value)?;
    let client = field_mac(&value, "client")?;
    match ev.as_str() {
        "probe" => {
            let ssid = match value.get("ssid") {
                None => None,
                Some(_) => Some(field_ssid(&value)?),
            };
            Ok(InputEvent::Probe { t_us, client, ssid })
        }
        "assoc" => Ok(InputEvent::Assoc {
            t_us,
            client,
            ssid: field_ssid(&value)?,
        }),
        _ => Err(ProtocolError::UnknownEvent),
    }
}

/// Decodes one output wire line (round-trip tests, downstream consumers).
///
/// # Errors
///
/// A typed [`ProtocolError`] on any malformed line; never panics.
pub fn decode_output(line: &str) -> Result<OutputEvent, ProtocolError> {
    let (value, ev) = checked_envelope(line)?;
    let t_us = field_t_us(&value)?;
    match ev.as_str() {
        "lure" => Ok(OutputEvent::Lure {
            t_us,
            client: field_mac(&value, "client")?,
            ssid: field_ssid(&value)?,
            source: value
                .get("source")
                .and_then(Json::as_str)
                .and_then(parse_source)
                .ok_or(ProtocolError::BadField("source"))?,
            lane: value
                .get("lane")
                .and_then(Json::as_str)
                .and_then(parse_lane)
                .ok_or(ProtocolError::BadField("lane"))?,
        }),
        "beacon" => Ok(OutputEvent::Beacon {
            t_us,
            bssid: field_mac(&value, "bssid")?,
            ssid: field_ssid(&value)?,
        }),
        "stats" => Ok(OutputEvent::Stats {
            t_us,
            stats: ServiceStats::from_json(
                value
                    .get("stats")
                    .ok_or(ProtocolError::MissingField("stats"))?,
            )?,
        }),
        "checkpoint" => Ok(OutputEvent::Checkpoint {
            t_us,
            acked: value
                .get("acked")
                .ok_or(ProtocolError::MissingField("acked"))?
                .as_u64()
                .ok_or(ProtocolError::BadField("acked"))?,
        }),
        _ => Err(ProtocolError::UnknownEvent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    #[test]
    fn broadcast_probe_omits_ssid() {
        let ev = InputEvent::Probe {
            t_us: 42,
            client: mac(1),
            ssid: None,
        };
        let line = encode_input(&ev);
        assert!(!line.contains("ssid"));
        assert_eq!(decode_input(&line).unwrap(), ev);
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServiceStats {
            events: 10,
            probes: 7,
            assocs: 3,
            lures: 280,
            hits: 2,
            unmatched_assocs: 1,
            shed: 4,
            deadline_misses: 5,
            beacons: 6,
            checkpoints: 1,
            malformed: 9,
        };
        assert_eq!(ServiceStats::from_json(&stats.to_json()).unwrap(), stats);
    }

    /// The `Json`-tree rendering the streaming encoder replaced: the
    /// oracle [`encode_output`] must match byte for byte.
    fn tree_output(event: &OutputEvent) -> String {
        let mut fields = vec![("v", Json::str(PROTOCOL_VERSION))];
        match event {
            OutputEvent::Lure {
                t_us,
                client,
                ssid,
                source,
                lane,
            } => fields.extend([
                ("ev", Json::str("lure")),
                ("t_us", Json::from_u64(*t_us)),
                ("client", Json::str(client.to_string())),
                ("ssid", Json::str(ssid.as_str())),
                ("source", Json::str(source_name(*source))),
                ("lane", Json::str(lane_name(*lane))),
            ]),
            OutputEvent::Beacon { t_us, bssid, ssid } => fields.extend([
                ("ev", Json::str("beacon")),
                ("t_us", Json::from_u64(*t_us)),
                ("bssid", Json::str(bssid.to_string())),
                ("ssid", Json::str(ssid.as_str())),
            ]),
            OutputEvent::Stats { t_us, stats } => fields.extend([
                ("ev", Json::str("stats")),
                ("t_us", Json::from_u64(*t_us)),
                ("stats", stats.to_json()),
            ]),
            OutputEvent::Checkpoint { t_us, acked } => fields.extend([
                ("ev", Json::str("checkpoint")),
                ("t_us", Json::from_u64(*t_us)),
                ("acked", Json::from_u64(*acked)),
            ]),
        }
        obj(fields).render()
    }

    #[test]
    fn encode_output_matches_tree_oracle() {
        let stats = ServiceStats {
            events: 1 << 53,
            probes: (1 << 53) + 1,
            lures: u64::MAX,
            hits: 7,
            ..ServiceStats::default()
        };
        let ssids = [
            "plain",
            "",
            "quote\" back\\slash",
            "ctl\u{1}\u{1f}\n\t",
            "漢字 é",
        ];
        let macs = [mac(1), MacAddr::new([0xff, 0xab, 0x0c, 0x90, 0x0a, 0xf0])];
        for t_us in [0, 1, 999, 1 << 53, (1 << 53) + 1, (1 << 53) + 3, u64::MAX] {
            let mut events = vec![
                OutputEvent::Stats { t_us, stats },
                OutputEvent::Checkpoint { t_us, acked: t_us },
            ];
            for (i, text) in ssids.iter().enumerate() {
                let ssid = Ssid::new(*text).unwrap();
                events.push(OutputEvent::Lure {
                    t_us,
                    client: macs[i % 2],
                    ssid: ssid.clone(),
                    source: [
                        LureSource::Wigle,
                        LureSource::DirectProbe,
                        LureSource::Carrier,
                    ][i % 3],
                    lane: LureLane::FreshnessGhost,
                });
                events.push(OutputEvent::Beacon {
                    t_us,
                    bssid: macs[(i + 1) % 2],
                    ssid,
                });
            }
            for event in &events {
                let want = tree_output(event);
                assert_eq!(encode_output(event), want);
                let mut appended = String::from("kept|");
                encode_output_into(event, &mut appended);
                assert_eq!(appended, format!("kept|{want}"));
            }
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let line = r#"{"v":"ch-serve-v0","ev":"probe","t_us":1,"client":"02:00:00:00:00:01"}"#;
        assert_eq!(decode_input(line), Err(ProtocolError::WrongVersion));
    }
}
