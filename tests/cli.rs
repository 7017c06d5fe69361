//! Integration tests for the `sdmmon` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn sdmmon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdmmon"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdmmon-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const TINY: &str = "li $t0, 7\nli $t4, 0x0007fff0\nsw $t0, 0($t4)\nbreak 0\n";

#[test]
fn help_prints_usage() {
    let out = sdmmon().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("USAGE"), "{text}");
}

#[test]
fn no_args_is_a_usage_error() {
    let out = sdmmon().output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn asm_disassembles_to_stdout() {
    let src = write_temp("tiny.s", TINY);
    let out = sdmmon().arg("asm").arg(&src).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lui"), "{text}");
    assert!(text.contains("break"), "{text}");
}

#[test]
fn asm_then_disasm_round_trip() {
    let src = write_temp("rt.s", TINY);
    let bin = write_temp("rt.bin", "");
    let out = sdmmon()
        .arg("asm")
        .arg(&src)
        .arg("-o")
        .arg(&bin)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = sdmmon().arg("disasm").arg(&bin).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sw $t0"), "{text}");
}

#[test]
fn graph_reports_statistics() {
    let src = write_temp("graph.s", TINY);
    let out = sdmmon()
        .arg("graph")
        .arg(&src)
        .arg("--param")
        .arg("0xdeadbeef")
        .arg("--compression")
        .arg("sbox")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("instructions:  6"), "{text}"); // 2x li = 4 words + sw + break
    assert!(text.contains("param 0xdeadbeef"), "{text}");
}

#[test]
fn run_executes_a_packet_with_monitor_and_trace() {
    let src = write_temp("run.s", TINY);
    let out = sdmmon()
        .arg("run")
        .arg(&src)
        .arg("--packet")
        .arg("00")
        .arg("--trace")
        .arg("4")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict:  forward(port 7)"), "{text}");
    assert!(text.contains("0 violations"), "{text}");
    assert!(text.contains("last 4 instructions"), "{text}");
}

#[test]
fn campaign_replays_byte_identically_per_seed() {
    let dir = std::env::temp_dir().join(format!("sdmmon-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |seed: &str, name: &str| -> Vec<u8> {
        let out_path = dir.join(name);
        let out = sdmmon()
            .arg("campaign")
            .arg("--seed")
            .arg(seed)
            .arg("--budget")
            .arg("50")
            .arg("--escape-trials")
            .arg("400")
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("escape model"), "{text}");
        assert!(text.contains("differential"), "{text}");
        std::fs::read(&out_path).expect("campaign report written")
    };
    let first = run("7", "campaign-a.json");
    let second = run("7", "campaign-b.json");
    assert_eq!(first, second, "same seed must replay byte-identically");
    let other = run("8", "campaign-c.json");
    assert_ne!(first, other, "different seeds must differ");
}

#[test]
fn campaign_list_enumerates_the_catalog() {
    let out = sdmmon()
        .arg("campaign")
        .arg("--list")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "stack_smash",
        "packet_fuzz",
        "wire_faults",
        "fault_recovery",
        "evasive_propagation",
        "resilient_deploy",
    ] {
        assert!(text.contains(name), "--list must mention {name}: {text}");
    }
}

#[test]
fn frontier_quick_writes_a_replayable_report() {
    let run = |name: &str| -> Vec<u8> {
        let out_path = write_temp(name, "");
        let out = sdmmon()
            .arg("frontier")
            .arg("--quick")
            .arg("--seed")
            .arg("62855") // 0xF587: exercises the arbitrary-seed path
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("policy"), "{text}");
        assert!(text.contains("paranoid"), "{text}");
        std::fs::read(&out_path).expect("frontier report written")
    };
    let first = run("frontier-a.json");
    let second = run("frontier-b.json");
    assert_eq!(first, second, "same seed must replay byte-identically");
    let text = String::from_utf8_lossy(&first);
    assert!(
        text.contains("\"schema\": \"sdmmon-frontier-v1\""),
        "{text}"
    );
}

#[test]
fn stream_quick_replays_byte_identically_and_balances_the_books() {
    let run = |name: &str| -> Vec<u8> {
        let out_path = write_temp(name, "");
        let out = sdmmon()
            .arg("stream")
            .arg("--quick")
            .arg("--capacity")
            .arg("16") // tight ingress budget, so drops actually occur
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("byte-identical to the serial streaming oracle: yes"),
            "{text}"
        );
        std::fs::read(&out_path).expect("stream report written")
    };
    let first = run("stream-a.json");
    let second = run("stream-b.json");
    assert_eq!(first, second, "same seed must replay byte-identically");
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("\"schema\": \"sdmmon-stream-v1\""), "{text}");
    // Backpressure accounting: offered splits exactly into admitted plus
    // dropped, and the tight budget above forces the dropped leg nonzero.
    let field = |key: &str| -> u64 {
        let tail = text.split(key).nth(1).unwrap_or_else(|| panic!("{key}"));
        let digits: String = tail
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().expect("numeric field")
    };
    let (offered, admitted, dropped) = (
        field("\"offered\""),
        field("\"admitted\""),
        field("\"dropped\""),
    );
    assert_eq!(admitted + dropped, offered, "{text}");
    assert!(dropped > 0, "{text}");
}

/// Past about 30 rounds the hijack scenario has quarantined every core
/// (its ladder never paroles). `stream` then drops the rounds no core can
/// take and exits 0; `trace`, whose artifact needs a drop-free stream,
/// reports the drops as a processing error (exit 2). Neither panics.
#[test]
fn streams_past_full_quarantine_exit_cleanly() {
    let out = sdmmon()
        .args(["stream", "--rounds", "200", "--out"])
        .arg(write_temp("stream-long.json", ""))
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let out = sdmmon()
        .args(["trace", "--quick", "--rounds", "40", "--out"])
        .arg(write_temp("trace-long.json", ""))
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("must not drop at admission"), "{stderr}");
}

#[test]
fn trace_quick_replays_byte_identically_across_runs_and_shard_counts() {
    let run = |name: &str, shards: &str| -> Vec<u8> {
        let out_path = write_temp(name, "");
        let out = sdmmon()
            .arg("trace")
            .arg("--quick")
            .arg("--shards")
            .arg(shards)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&out_path).expect("trace artifact written")
    };
    let first = run("trace-a.json", "4");
    let second = run("trace-b.json", "4");
    assert_eq!(first, second, "same seed must replay byte-identically");
    // The trace artifact is a pure function of seed × flow, so the shard
    // count must not leak into it.
    let serial = run("trace-c.json", "1");
    assert_eq!(first, serial, "shard count must not change the artifact");
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("\"schema\": \"sdmmon-trace-v1\""), "{text}");
    assert!(text.contains("\"stage\": \"respond\""), "{text}");
    assert!(text.contains("\"stage\": \"install\""), "{text}");
}

#[test]
fn bad_inputs_yield_clean_errors() {
    // Unknown command.
    let out = sdmmon().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    // Missing file.
    let out = sdmmon()
        .arg("asm")
        .arg("/nonexistent/x.s")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // Assembly error reports the line.
    let src = write_temp("bad.s", "frobnicate $t0\n");
    let out = sdmmon().arg("asm").arg(&src).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    // Odd hex.
    let src = write_temp("odd.s", TINY);
    let out = sdmmon()
        .arg("run")
        .arg(&src)
        .arg("--packet")
        .arg("abc")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    // Zero retry or cycle budgets are usage errors on both deploy paths.
    for relays in [None, Some("2")] {
        for flag in ["--max-retries", "--deploy-attempts"] {
            let mut cmd = sdmmon();
            cmd.args(["deploy", "--routers", "2", flag, "0"]);
            if let Some(relays) = relays {
                cmd.args(["--relays", relays]);
            }
            let out = cmd.output().expect("spawn");
            assert_eq!(out.status.code(), Some(1), "{flag} 0, relays {relays:?}");
            let text = String::from_utf8_lossy(&out.stderr);
            assert!(
                text.contains("retries and attempts must be nonzero"),
                "{text}"
            );
        }
    }
    // The commands that take `--quick`: unknown options, missing values
    // and out-of-range shard counts.
    for (args, message) in [
        (&["bench", "--bogus"][..], "unknown option `--bogus`"),
        (&["bench", "--metrics"], "option `--metrics` needs a value"),
        (&["bench", "--shards", "0"], "--shards must be nonzero"),
        (&["frontier", "--bogus"], "unknown option `--bogus`"),
        (
            &["frontier", "--quick", "--seed"],
            "option `--seed` needs a value",
        ),
        (&["frontier", "--shards", "0"], "unknown option `--shards`"),
        (&["stream", "--bogus"], "unknown option `--bogus`"),
        (&["stream", "--rounds"], "option `--rounds` needs a value"),
        (
            &["stream", "--shards", "0"],
            "shards, capacity and rounds must be nonzero",
        ),
        (
            &["stream", "--shards", "9"],
            "at most 8 shards on an 8-core NP",
        ),
        (&["trace", "--bogus"], "unknown option `--bogus`"),
        (
            &["trace", "--perfetto"],
            "option `--perfetto` needs a value",
        ),
        (
            &["trace", "--shards", "0"],
            "shards and rounds must be nonzero",
        ),
    ] {
        let out = sdmmon().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.starts_with(&format!("error: {message}\n")),
            "{args:?}: {text}"
        );
    }
}

#[test]
fn deploy_with_one_core_per_router_exits_cleanly() {
    // The shakedown quarantines each router's only core; with nothing
    // left in dispatch the parole batches are skipped, not panicked on.
    let out = sdmmon()
        .args(["deploy", "--routers", "2", "--cores", "1"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(out of dispatch)"), "{text}");
}

#[test]
fn stats_with_one_core_exits_cleanly() {
    // The first batch quarantines the only core; the second batch is not
    // dispatched, and the stats still print.
    let out = sdmmon()
        .args(["stats", "--cores", "1"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("not dispatched: no core is active"), "{text}");
    assert!(text.contains("np stats: "), "{text}");
}

#[test]
fn tree_deploy_counts_one_prepared_update_per_push() {
    // The subprocess owns its metrics registry, so the count is exact.
    let metrics = write_temp("tree-metrics.json", "");
    let out = sdmmon()
        .args(["deploy", "--routers", "10", "--relays", "2", "--metrics"])
        .arg(&metrics)
        .arg("--out")
        .arg(write_temp("tree-fleet.json", ""))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(text.contains("\"fleet_updates_prepared\": 1,"), "{text}");
}

#[test]
fn output_into_a_closed_pipe_ends_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 64 Ki zero words disassemble to megabytes of text — far more than a
    // pipe buffers, so the writer is still going when the reader leaves.
    let image = write_temp("zeros.bin", "");
    std::fs::write(&image, vec![0u8; 256 * 1024]).expect("write image");
    let mut child = sdmmon()
        .arg("disasm")
        .arg(&image)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.contains("00000000"), "{first}");
    // The reader went away with the statement above, like `… | head -1`.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn errors_into_a_closed_stderr_keep_their_exit_codes() {
    use std::process::Stdio;
    let src = write_temp("closed-stderr.s", TINY);
    let src = src.to_str().expect("utf-8 temp path");
    for (args, code) in [
        (&["run", src, "--packet", "450"][..], 1),
        (&[], 1),
        (&["run", "/nonexistent/x.s", "--packet", "45"], 2),
    ] {
        // Stderr's reader is gone before the child writes a byte, as in
        // `sdmmon … 2>&1 | true`.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = sdmmon()
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("spawn");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}
