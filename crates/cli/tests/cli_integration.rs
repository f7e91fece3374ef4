//! End-to-end tests of the `flsa` binary: generate data, align it with
//! every algorithm, and check the reports agree.

use std::path::PathBuf;
use std::process::{Command, Output};

fn flsa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("flsa-cli-test-{}-{name}", std::process::id()));
    p
}

fn score_line(text: &str) -> i64 {
    text.lines()
        .find(|l| l.starts_with("score "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no score line in:\n{text}"))
}

#[test]
fn gen_then_align_all_global_algorithms_agree() {
    let fa = tmp("pair.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "300",
        "--seed",
        "5",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let mut scores = Vec::new();
    for algo in ["fastlsa", "nw", "nw-packed", "hirschberg"] {
        let out = flsa(&["align", "--algo", algo, "--quiet", fa.to_str().unwrap()]);
        assert!(out.status.success(), "{algo}: {out:?}");
        scores.push(score_line(&stdout(&out)));
    }
    assert!(scores.windows(2).all(|w| w[0] == w[1]), "{scores:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn paper_example_via_matrix_flag() {
    let fa = tmp("paper.fa");
    std::fs::write(&fa, ">a\nTLDKLLKD\n>b\nTDVLKAD\n").unwrap();
    let out = flsa(&[
        "align",
        "--matrix",
        "paper",
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(score_line(&stdout(&out)), 82);
    std::fs::remove_file(fa).ok();
}

#[test]
fn stats_flag_reports_metrics() {
    let fa = tmp("stats.fa");
    std::fs::write(&fa, ">a\nACGTACGT\n>b\nACGTTCGT\n").unwrap();
    let out = flsa(&["align", "--stats", "--quiet", fa.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(text.contains("cells computed"), "{text}");
    assert!(text.contains("peak aux memory"), "{text}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn parallel_threads_give_same_score() {
    let fa = tmp("par.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "500",
        "--seed",
        "9",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let s1 = score_line(&stdout(&flsa(&[
        "align",
        "--quiet",
        "-k",
        "4",
        "--base-cells",
        "1024",
        fa.to_str().unwrap(),
    ])));
    let s4 = score_line(&stdout(&flsa(&[
        "align",
        "--quiet",
        "-k",
        "4",
        "--base-cells",
        "1024",
        "--threads",
        "4",
        fa.to_str().unwrap(),
    ])));
    assert_eq!(s1, s4);
    std::fs::remove_file(fa).ok();
}

#[test]
fn custom_matrix_file_is_honoured() {
    let fa = tmp("mat.fa");
    std::fs::write(&fa, ">a\nAC\n>b\nAC\n").unwrap();
    let mat = tmp("matrix.txt");
    std::fs::write(
        &mat,
        "  A C G T\nA 9 0 0 0\nC 0 9 0 0\nG 0 0 9 0\nT 0 0 0 9\n",
    )
    .unwrap();
    let out = flsa(&[
        "align",
        "--matrix-file",
        mat.to_str().unwrap(),
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(score_line(&stdout(&out)), 18);
    std::fs::remove_file(fa).ok();
    std::fs::remove_file(mat).ok();
}

#[test]
fn affine_algorithms_agree_with_each_other() {
    let fa = tmp("affine.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "200",
        "--seed",
        "3",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let g = score_line(&stdout(&flsa(&[
        "align",
        "--algo",
        "gotoh",
        "--gap-open",
        "-12",
        "--gap-extend",
        "-2",
        "--quiet",
        fa.to_str().unwrap(),
    ])));
    let m = score_line(&stdout(&flsa(&[
        "align",
        "--algo",
        "mm-affine",
        "--gap-open",
        "-12",
        "--gap-extend",
        "-2",
        "--quiet",
        fa.to_str().unwrap(),
    ])));
    assert_eq!(g, m);
    std::fs::remove_file(fa).ok();
}

#[test]
fn fastlsa_affine_takes_the_shared_engine_options() {
    let fa = tmp("affine-opts.fa");
    let metrics = tmp("affine-opts-metrics.json");
    let trace = tmp("affine-opts-trace.json");
    let out = flsa(&[
        "gen",
        "--len",
        "300",
        "--seed",
        "4",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let gotoh = score_line(&stdout(&flsa(&[
        "align",
        "--algo",
        "gotoh",
        "--quiet",
        fa.to_str().unwrap(),
    ])));

    // --metrics and --trace now reach the affine run.
    let out = flsa(&[
        "align",
        "--algo",
        "fastlsa-affine",
        "-k",
        "4",
        "--base-cells",
        "4096",
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(score_line(&stdout(&out)), gotoh);
    let exported = std::fs::read_to_string(&metrics).expect("metrics export written");
    assert!(exported.contains("flsa_blocks_filled_total"), "{exported}");
    let traced = std::fs::read_to_string(&trace).expect("trace written");
    assert!(traced.contains("BaseCase"), "trace has no base-case span");

    // --threads is refused with a typed configuration error, not ignored.
    let out = flsa(&[
        "align",
        "--algo",
        "fastlsa-affine",
        "--threads",
        "2",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unsupported gap model"),
        "{out:?}"
    );
    for f in [fa, metrics, trace] {
        std::fs::remove_file(f).ok();
    }
}

/// The value of counter `name` in a `--metrics` JSON export.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    json.lines()
        .find_map(|l| l.trim().strip_prefix(&key))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .unwrap_or_else(|| panic!("no counter {name} in:\n{json}"))
}

#[test]
fn fastlsa_affine_runs_on_the_requested_kernel() {
    let fa = tmp("affine-kernel.fa");
    let metrics = tmp("affine-kernel-metrics.json");
    let out = flsa(&[
        "gen",
        "--len",
        "600",
        "--seed",
        "9",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let mut backends = vec![flsa_dp::KernelBackend::Scalar];
    backends.extend(
        flsa_dp::KernelBackend::available()
            .into_iter()
            .filter(|b| *b != flsa_dp::KernelBackend::Scalar),
    );
    let mut reference: Option<String> = None;
    for backend in backends {
        let out = flsa(&[
            "align",
            "--algo",
            "fastlsa-affine",
            "-k",
            "4",
            "--base-cells",
            "4096",
            "--kernel",
            backend.name(),
            "--metrics",
            metrics.to_str().unwrap(),
            fa.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{backend}: {out:?}");
        // Every backend prints the same alignment, byte for byte.
        let text = stdout(&out);
        match &reference {
            None => reference = Some(text),
            Some(want) => assert_eq!(&text, want, "{backend}"),
        }
        // ... and every affine cell is credited to the backend asked for.
        let exported = std::fs::read_to_string(&metrics).expect("metrics export written");
        let cells = counter(&exported, "flsa_cells_total");
        assert!(cells > 0);
        let slug = backend.name().replace('.', "");
        assert_eq!(
            counter(&exported, &format!("flsa_cells_backend_{slug}_total")),
            cells,
            "{backend}: {exported}"
        );
    }
    for f in [fa, metrics] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn local_and_semiglobal_modes_run() {
    let fa = tmp("modes.fa");
    std::fs::write(&fa, ">a\nGATTACA\n>b\nCCCCGATTACACCCC\n").unwrap();
    for algo in ["sw", "fit", "overlap", "banded"] {
        let out = flsa(&["align", "--algo", algo, "--quiet", fa.to_str().unwrap()]);
        assert!(out.status.success(), "{algo}: {out:?}");
    }
    // fit: the query embeds perfectly, 7 matches at +5.
    let out = flsa(&["align", "--algo", "fit", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(score_line(&stdout(&out)), 35);
    std::fs::remove_file(fa).ok();
}

#[test]
fn unknown_algorithm_fails_cleanly() {
    let fa = tmp("bad.fa");
    std::fs::write(&fa, ">a\nAC\n>b\nAC\n").unwrap();
    let out = flsa(&["align", "--algo", "nope", fa.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_file(fa).ok();
}

#[test]
fn msa_subcommand_aligns_a_family() {
    let fa = tmp("family.fa");
    std::fs::write(
        &fa,
        ">s1\nACGTACGT\n>s2\nACGTCGT\n>s3\nACGGACGT\n>s4\nACGTACGT\n",
    )
    .unwrap();
    let out = flsa(&["msa", fa.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("4 sequences"), "{text}");
    assert!(text.contains("sum-of-pairs"), "{text}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn help_and_info_print() {
    assert!(stdout(&flsa(&["help"])).contains("USAGE"));
    assert!(stdout(&flsa(&["info"])).contains("blosum62"));
}

#[test]
fn json_flag_emits_machine_readable_stats() {
    let fa = tmp("json.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "400",
        "--seed",
        "13",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = flsa(&["align", "--json", fa.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    // One line, one JSON object, all the MetricsSnapshot fields present.
    assert_eq!(text.trim().lines().count(), 1, "{text}");
    let doc = flsa_trace::json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    assert_eq!(doc.get("algo").and_then(|v| v.as_str()), Some("fastlsa"));
    for key in [
        "score",
        "len_a",
        "len_b",
        "threads",
        "time_ns",
        "cells_computed",
        "cells_base_case",
        "traceback_steps",
        "kernel_calls",
        "peak_bytes",
        "cell_factor",
    ] {
        assert!(doc.get(key).is_some(), "missing {key} in {text}");
    }
    assert!(doc.get("cells_computed").unwrap().as_u64().unwrap() > 0);
    std::fs::remove_file(fa).ok();
}

#[test]
fn trace_then_report_round_trips_both_formats() {
    let fa = tmp("trace.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "600",
        "--seed",
        "21",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    for format in ["chrome", "jsonl"] {
        let tr = tmp(&format!("trace.{format}"));
        let out = flsa(&[
            "align",
            "--threads",
            "2",
            "-k",
            "4",
            "--base-cells",
            "4096",
            "--quiet",
            "--trace",
            tr.to_str().unwrap(),
            "--trace-format",
            format,
            fa.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{format}: {out:?}");
        let trace = flsa_trace::read_trace(&std::fs::read_to_string(&tr).unwrap()).unwrap();
        assert!(trace.kernel_cells() > 0, "{format}: no kernel events");
        assert_eq!(trace.meta.threads, 2);

        let out = flsa(&["report", tr.to_str().unwrap()]);
        assert!(out.status.success(), "{format}: {out:?}");
        let text = stdout(&out);
        assert!(text.contains("per-thread utilization"), "{text}");
        assert!(text.contains("ramp-up / saturated / drain"), "{text}");
        std::fs::remove_file(tr).ok();
    }
    std::fs::remove_file(fa).ok();
}

#[test]
fn unknown_long_flag_fails_cleanly() {
    let out = flsa(&["align", "--threds", "4", "x.fa"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threds"));
    let out = flsa(&["align", "--notaflag", "x.fa"]);
    assert!(!out.status.success());
}

// --- exit-code taxonomy: 0 ok, 1 runtime fault, 2 bad config/args, ---
// --- 3 malformed input                                             ---

fn write_pair(name: &str) -> PathBuf {
    let fa = tmp(name);
    std::fs::write(&fa, ">a\nACGTACGTACGTACGT\n>b\nACGTTCGTACGGACGT\n").unwrap();
    fa
}

#[test]
fn exit_code_0_on_successful_alignment() {
    let fa = write_pair("exit0.fa");
    let out = flsa(&["align", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_1_when_the_deadline_cancels_the_run() {
    let fa = write_pair("exit1.fa");
    let out = flsa(&[
        "align",
        "--deadline-ms",
        "0",
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("cancelled"), "{err}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_2_on_bad_config_or_args() {
    let fa = write_pair("exit2.fa");
    // Invalid FastLSA configuration (k must be >= 2).
    let out = flsa(&["align", "-k", "1", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("k must be >= 2"));
    // Unknown algorithm and unknown subcommand are argument errors too.
    let out = flsa(&["align", "--algo", "nope", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = flsa(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Invalid numeric option value.
    let out = flsa(&["align", "--deadline-ms", "soon", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_3_on_malformed_or_missing_input() {
    // Sequence data before any FASTA header.
    let bad = tmp("exit3.fa");
    std::fs::write(&bad, "ACGT this is not a fasta file\n").unwrap();
    let out = flsa(&["align", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    std::fs::remove_file(&bad).ok();
    // Missing file.
    let out = flsa(&["align", "/nonexistent/pair.fa"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // Too few records in an otherwise valid file.
    let one = tmp("exit3-one.fa");
    std::fs::write(&one, ">only\nACGT\n").unwrap();
    let out = flsa(&["align", one.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("need two"));
    std::fs::remove_file(one).ok();
}

#[test]
fn memory_budget_degrades_but_still_exits_zero() {
    let fa = write_pair("budget.fa");
    let out = flsa(&["align", "--memory", "4096", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("score "), "{out:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn report_rejects_missing_and_invalid_files() {
    let out = flsa(&["report", "/nonexistent/trace.json"]);
    assert!(!out.status.success());
    let bad = tmp("bad-trace.json");
    std::fs::write(&bad, "not a trace").unwrap();
    let out = flsa(&["report", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_file(bad).ok();
}

// --- checkpoint / resume -------------------------------------------------

/// A pair long enough that `--checkpoint-every-blocks 1` leaves several
/// snapshots behind when a run is cut short.
fn write_checkpoint_pair(name: &str) -> PathBuf {
    let fa = tmp(name);
    let out = flsa(&[
        "gen",
        "--len",
        "500",
        "--seed",
        "12",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    fa
}

#[test]
fn checkpointed_align_completes_and_removes_the_snapshot() {
    let fa = write_checkpoint_pair("ckpt-ok.fa");
    let ckpt = tmp("ckpt-ok.ckpt");
    let out = flsa(&[
        "align",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every-blocks",
        "1",
        "-k",
        "4",
        "--base-cells",
        "512",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("score "));
    assert!(!ckpt.exists(), "snapshot should be removed after success");
    std::fs::remove_file(fa).ok();
}

#[test]
fn cancelled_run_leaves_a_snapshot_that_resume_finishes_identically() {
    let fa = write_checkpoint_pair("ckpt-resume.fa");
    let ckpt = tmp("ckpt-resume.ckpt");
    let align = [
        "align",
        "-k",
        "4",
        "--base-cells",
        "512",
        fa.to_str().unwrap(),
    ];
    let reference = flsa(&align);
    assert!(reference.status.success(), "{reference:?}");

    // Cancel immediately: the engine force-checkpoints at the last
    // consistent point before reporting the cancellation (exit 1).
    let mut cancelled: Vec<&str> = align.to_vec();
    let ckpt_s = ckpt.to_str().unwrap();
    cancelled.extend_from_slice(&[
        "--checkpoint",
        ckpt_s,
        "--checkpoint-every-blocks",
        "1",
        "--deadline-ms",
        "0",
    ]);
    let out = flsa(&cancelled);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        ckpt.exists(),
        "cancellation must leave a resumable snapshot"
    );

    let resumed = flsa(&["resume", ckpt_s]);
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert_eq!(
        stdout(&resumed),
        stdout(&reference),
        "resumed output must be byte-identical"
    );
    assert!(!ckpt.exists(), "snapshot should be removed after resume");
    std::fs::remove_file(fa).ok();
}

#[test]
fn corrupt_snapshot_exits_3_with_a_structured_message() {
    let fa = write_checkpoint_pair("ckpt-corrupt.fa");
    let ckpt = tmp("ckpt-corrupt.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let out = flsa(&[
        "align",
        "-k",
        "4",
        "--base-cells",
        "512",
        "--checkpoint",
        ckpt_s,
        "--checkpoint-every-blocks",
        "1",
        "--deadline-ms",
        "0",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Flip one bit in the middle of the snapshot.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = flsa(&["resume", ckpt_s]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt checkpoint"),
        "{out:?}"
    );

    // Truncation is detected too.
    bytes[mid] ^= 0x40; // restore the flipped bit
    bytes.truncate(bytes.len() - 20);
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = flsa(&["resume", ckpt_s]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    std::fs::remove_file(ckpt).ok();
    std::fs::remove_file(fa).ok();
}

#[test]
fn resume_rejects_missing_files_and_bad_usage() {
    let out = flsa(&["resume", "/nonexistent/run.ckpt"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let out = flsa(&["resume"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --checkpoint composes only with the checkpointable engine.
    let fa = write_pair("ckpt-usage.fa");
    let out = flsa(&[
        "align",
        "--algo",
        "nw",
        "--checkpoint",
        "/tmp/x.ckpt",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = flsa(&[
        "align",
        "--checkpoint",
        "/tmp/x.ckpt",
        "--checkpoint-every-blocks",
        "0",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_file(fa).ok();
}
