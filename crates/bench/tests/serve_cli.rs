//! End-to-end tests of the serving CLI surface, driving the real
//! `hdpat-sim` binary in separate processes: cross-process persistence of
//! the run cache, the stdio daemon, the replay harness, the PROTOCOL.md
//! drift gate, and the rejection of flags a command does not take.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_hdpat-sim");

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdpat-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "hdpat-sim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The headline acceptance check: `figure fig14` in two *separate
/// processes* over one `--cache-dir`. The second process simulates nothing,
/// answers every point from disk, and prints byte-identical stdout.
#[test]
fn figure_fig14_is_byte_identical_across_processes() {
    let dir = tmpdir("fig14");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let args = [
        "figure",
        "fig14",
        "--scale",
        "unit",
        "--jobs",
        "4",
        "--cache-dir",
        cache_s,
    ];
    let cold = run(&args);
    let warm = run(&args);
    assert_eq!(
        cold.stdout, warm.stdout,
        "figure output must not depend on the cache state"
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 simulation(s) executed"),
        "warm process must simulate nothing: {warm_err}"
    );
    assert!(
        warm_err.contains("70 disk hit(s)"),
        "warm process must answer all 70 points from disk: {warm_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --stdio` answers submits on stdout and drains at EOF; a daemon
/// restarted on the same cache directory attributes the repeat to disk.
#[test]
fn serve_stdio_round_trips_and_persists() {
    let dir = tmpdir("stdio");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap().to_string();
    let submit =
        r#"{"op":"submit","id":"j1","benchmark":"AES","policy":"naive","scale":"unit","seed":7}"#;
    let serve_once = |input: &str| -> String {
        let mut child = Command::new(BIN)
            .args(["serve", "--stdio", "--jobs", "2", "--cache-dir", &cache_s])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let first = serve_once(&format!("{submit}\n"));
    assert!(
        first.contains(r#""type":"result","id":"j1","source":"simulated""#),
        "cold daemon simulates: {first}"
    );
    let second = serve_once(&format!("{submit}\n"));
    assert!(
        second.contains(r#""type":"result","id":"j1","source":"disk""#),
        "restarted daemon answers from disk: {second}"
    );
    // The deterministic payload is identical either way.
    let strip = |s: &str| s.replace(r#""source":"simulated""#, r#""source":"disk""#);
    assert_eq!(strip(&first), second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `emit-mix` + `replay` round trip: batch replay writes the digest and
/// stats artifacts; replaying again hits the persistent cache.
#[test]
fn replay_cli_writes_digest_and_stats() {
    let dir = tmpdir("replay");
    let mix = dir.join("mix.ndjson");
    let mix_s = mix.to_str().unwrap().to_string();
    run(&["emit-mix", "fig14", "--scale", "unit", "--out", &mix_s]);
    let full = std::fs::read_to_string(&mix).unwrap();
    let subset: String = full.lines().take(4).map(|l| format!("{l}\n")).collect();
    std::fs::write(&mix, &subset).unwrap();

    let cache = dir.join("cache");
    let out1 = dir.join("d1.txt");
    let out2 = dir.join("d2.txt");
    let stats2 = dir.join("s2.json");
    let base = [
        "replay",
        &mix_s,
        "--jobs",
        "2",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let mut a1: Vec<&str> = base.to_vec();
    a1.extend(["--out", out1.to_str().unwrap()]);
    run(&a1);
    let mut a2: Vec<&str> = base.to_vec();
    a2.extend([
        "--out",
        out2.to_str().unwrap(),
        "--stats-out",
        stats2.to_str().unwrap(),
    ]);
    run(&a2);

    let d1 = std::fs::read_to_string(&out1).unwrap();
    let d2 = std::fs::read_to_string(&out2).unwrap();
    assert_eq!(d1, d2, "digest is cache-state independent");
    assert_eq!(d1.matches("=== ").count(), 4);
    let stats = std::fs::read_to_string(&stats2).unwrap();
    assert!(
        stats.contains("\"disk\": 4"),
        "second replay served from disk: {stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PROTOCOL.md drift gate: the worked examples in the committed doc
/// are exactly what the wire builders emit today.
#[test]
fn protocol_doc_examples_are_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md");
    let out = run(&["regen-protocol", "--check", "--path", path]);
    let msg = String::from_utf8_lossy(&out.stdout);
    assert!(msg.contains("up to date"), "{msg}");
}

/// A flag the command does not declare, including the removed `--no-cache`,
/// and a value-taking flag with no value, print the usage text and exit 2
/// instead of being ignored.
#[test]
fn unknown_and_value_less_flags_exit_2() {
    for extra in [&["--bogus-flag"][..], &["--no-cache"], &["--jobs"]] {
        let mut args = vec!["figure", "tab1", "--scale", "unit"];
        args.extend(extra);
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "hdpat-sim {args:?}");
        assert!(out.stdout.is_empty(), "hdpat-sim {args:?} printed a table");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage:"), "hdpat-sim {args:?}: {err}");
    }
    run(&["figure", "tab1", "--scale", "unit"]);
}
