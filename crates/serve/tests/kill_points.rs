//! Deterministic kill points against the real `ch-serve` process.
//!
//! `--abort-after-events N` aborts the service once N input events are
//! acked. `process::abort` runs no destructors, so whatever the output
//! file's buffer still holds is lost, exactly as under `kill -9`. Each
//! test kills a checkpointed run one event before, at and one event after
//! each of the first checkpoint boundaries, restarts it with the same
//! command minus the abort, and requires the output stream and the report
//! to be byte-identical to an uninterrupted run's. Unlike the timed
//! `kill -9` smoke in `ci.sh`, every kill point is exact and repeatable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ch_fleet::Json;
use ch_serve::checkpoint::load;

const CHECKPOINT_EVERY: u64 = 16;
/// Boundaries swept: the first three checkpoints.
const BOUNDARIES: u64 = 3;

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ch-serve-kill-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `ch-serve` on a short canteen stream, writing `{stem}.ndjson`,
/// `{stem}.json` and `{stem}.ckpt` in `dir`.
fn serve(dir: &Path, stem: &str, attacker: &[&str], abort_after: Option<u64>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ch-serve"));
    cmd.current_dir(dir)
        .args(attacker)
        .args(["--seed", "11", "--duration-mins", "4"])
        .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
        .args(["--stats-every", "24"])
        .arg("--out")
        .arg(dir.join(format!("{stem}.ndjson")))
        .arg("--report")
        .arg(dir.join(format!("{stem}.json")))
        .arg("--checkpoint")
        .arg(dir.join(format!("{stem}.ckpt")));
    if let Some(n) = abort_after {
        cmd.args(["--abort-after-events", &n.to_string()]);
    }
    cmd.output().unwrap()
}

/// Sweeps the kill points and returns how many kills left the output
/// file longer than the checkpoint's committed bytes: the buffer had
/// spilled past the checkpoint, so the restart had to truncate a tail.
fn assert_every_kill_point_recovers_exactly(name: &str, attacker: &[&str]) -> usize {
    let dir = work_dir(name);
    let base = serve(&dir, "base", attacker, None);
    assert!(base.status.success(), "{name}: uninterrupted run failed");
    let base_out = std::fs::read(dir.join("base.ndjson")).unwrap();
    let base_report = std::fs::read(dir.join("base.json")).unwrap();
    let checkpoints = String::from_utf8_lossy(&base_out)
        .matches("\"ev\":\"checkpoint\"")
        .count() as u64;
    assert!(
        checkpoints > BOUNDARIES,
        "{name}: the stream must reach more than {BOUNDARIES} checkpoints"
    );
    let mut torn_tails = 0;

    for boundary in (1..=BOUNDARIES).map(|k| k * CHECKPOINT_EVERY) {
        for kill_at in [boundary - 1, boundary, boundary + 1] {
            let stem = format!("kill{kill_at}");
            let killed = serve(&dir, &stem, attacker, Some(kill_at));
            assert!(
                !killed.status.success(),
                "{name}: run with --abort-after-events {kill_at} exited cleanly"
            );
            assert!(
                !dir.join(format!("{stem}.json")).exists(),
                "{name}: killed at {kill_at} yet wrote a report"
            );
            if let Some(checkpoint) = load(&dir.join(format!("{stem}.ckpt"))).unwrap() {
                let committed = checkpoint.get("out_bytes").and_then(Json::as_u64).unwrap();
                let on_disk = std::fs::metadata(dir.join(format!("{stem}.ndjson")))
                    .unwrap()
                    .len();
                assert!(
                    on_disk >= committed,
                    "{name}@{kill_at}: committed bytes lost"
                );
                torn_tails += usize::from(on_disk > committed);
            }

            let restarted = serve(&dir, &stem, attacker, None);
            assert!(
                restarted.status.success(),
                "{name}: restart after {kill_at} failed"
            );
            let log = String::from_utf8_lossy(&restarted.stderr);
            let resume = kill_at / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
            if resume == 0 {
                assert!(!log.contains("recovered warm"), "{name}@{kill_at}: {log}");
            } else {
                let note = format!("recovered warm from checkpoint at event {resume} ");
                assert!(log.contains(&note), "{name}@{kill_at}: {log}");
            }
            assert!(
                std::fs::read(dir.join(format!("{stem}.ndjson"))).unwrap() == base_out,
                "{name}: output after a kill at {kill_at} differs from the uninterrupted run"
            );
            assert_eq!(
                std::fs::read(dir.join(format!("{stem}.json"))).unwrap(),
                base_report,
                "{name}: report after a kill at {kill_at} differs from the uninterrupted run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    torn_tails
}

// Kills at a boundary or one past it find the buffer flushed by the
// checkpoint; kills one before it find that City-Hunter's 40-lure bursts
// spilled the 64 KiB buffer past the previous checkpoint, so both shapes
// of a killed output file are recovered from.

#[test]
fn cityhunter_recovers_exactly_from_every_kill_point() {
    let tails =
        assert_every_kill_point_recovers_exactly("cityhunter", &["--attacker", "cityhunter"]);
    assert!(tails > 0, "no kill left a tail past its checkpoint");
}

#[test]
fn evasive_cityhunter_recovers_exactly_from_every_kill_point() {
    let tails = assert_every_kill_point_recovers_exactly(
        "evasive-cityhunter",
        &["--attacker", "cityhunter", "--evasive"],
    );
    assert!(tails > 0, "no kill left a tail past its checkpoint");
}
