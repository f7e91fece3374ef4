//! Clean-path properties of sharded execution: byte-identity with the
//! sequential engine across shard counts and grid shapes, typed
//! configuration errors, the in-process fallback when no worker can be
//! spawned, and liveness gauges returning to baseline.

use std::sync::Arc;

use fastlsa_core::{align_with, FastLsaConfig};
use flsa_dp::Metrics;
use flsa_metrics::{names, Registry};
use flsa_scoring::tables;
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};
use flsa_shard::{align_sharded, ShardError, ShardOptions};

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_flsa-shard-worker").to_string()]
}

fn pair(len: usize, seed: u64) -> (Sequence, Sequence) {
    homologous_pair("t", &Alphabet::dna(), len, 0.8, seed).expect("pair")
}

fn reference(a: &Sequence, b: &Sequence, gap: i32, cfg: FastLsaConfig) -> flsa_dp::AlignResult {
    let scheme = tables::scheme_by_name("dna", gap).expect("dna scheme");
    align_with(a, b, &scheme, cfg, &Metrics::new()).expect("reference align")
}

#[test]
fn sharded_is_byte_identical_across_shard_counts_and_grids() {
    for (len, seed, k, base) in [
        (90usize, 7u64, 4usize, 1usize << 10),
        (140, 11, 8, 1 << 9),
        (61, 13, 2, 1 << 12),
    ] {
        let (a, b) = pair(len, seed);
        let cfg = FastLsaConfig::new(k, base);
        let oracle = reference(&a, &b, -3, cfg);
        for shards in [1usize, 2, 4] {
            let opts = ShardOptions::new(shards, worker_cmd());
            let got = align_sharded(&a, &b, "dna", -3, cfg, &opts, &Metrics::new())
                .expect("sharded align");
            assert_eq!(got.score, oracle.score, "len={len} shards={shards}");
            assert_eq!(got.path, oracle.path, "len={len} shards={shards}");
        }
    }
}

#[test]
fn uneven_sequences_and_matrices_stay_identical() {
    let alpha = tables::scheme_by_name("blosum62", -6).expect("scheme");
    let (a, b) = homologous_pair("p", alpha.alphabet(), 77, 0.7, 21).expect("pair");
    // Skew the shapes: trim one side hard.
    let b = Sequence::from_codes("p-b", alpha.alphabet(), b.codes()[..29].to_vec());
    let cfg = FastLsaConfig::new(4, 1 << 9);
    let oracle = align_with(&a, &b, &alpha, cfg, &Metrics::new()).expect("reference");
    let opts = ShardOptions::new(3, worker_cmd());
    let got = align_sharded(&a, &b, "blosum62", -6, cfg, &opts, &Metrics::new()).expect("sharded");
    assert_eq!(got.score, oracle.score);
    assert_eq!(got.path, oracle.path);
}

#[test]
fn degenerate_inputs_run_in_process() {
    let scheme = tables::scheme_by_name("dna", -2).expect("scheme");
    let a = Sequence::from_str("a", scheme.alphabet(), "A").expect("seq");
    let b = Sequence::from_str("b", scheme.alphabet(), "ACGT").expect("seq");
    let cfg = FastLsaConfig::default();
    let oracle = align_with(&a, &b, &scheme, cfg, &Metrics::new()).expect("reference");
    // Even with a nonsense worker command: degenerate inputs never
    // spawn a process.
    let opts = ShardOptions::new(2, vec!["/nonexistent/worker".to_string()]);
    let got = align_sharded(&a, &b, "dna", -2, cfg, &opts, &Metrics::new()).expect("sharded");
    assert_eq!(got.score, oracle.score);
    assert_eq!(got.path, oracle.path);
}

#[test]
fn config_errors_are_typed() {
    let (a, b) = pair(40, 3);
    let cfg = FastLsaConfig::default();
    let cases: Vec<(ShardOptions, &str, &str)> = vec![
        (ShardOptions::new(0, worker_cmd()), "dna", "zero shards"),
        (
            ShardOptions::new(2, Vec::new()),
            "dna",
            "empty worker command",
        ),
        (ShardOptions::new(2, worker_cmd()), "nonesuch", "bad matrix"),
    ];
    for (opts, matrix, what) in cases {
        match align_sharded(&a, &b, matrix, -3, cfg, &opts, &Metrics::new()) {
            Err(ShardError::Config { .. }) => {}
            other => panic!("{what}: expected Config error, got {other:?}"),
        }
    }
}

#[test]
fn unspawnable_workers_fall_back_in_process_byte_identically() {
    let (a, b) = pair(70, 5);
    let cfg = FastLsaConfig::new(4, 1 << 10);
    let oracle = reference(&a, &b, -3, cfg);
    let registry = Arc::new(Registry::new());
    let mut opts = ShardOptions::new(2, vec!["/nonexistent/flsa-shard-worker".to_string()]);
    opts.registry = Some(Arc::clone(&registry));
    let got = align_sharded(&a, &b, "dna", -3, cfg, &opts, &Metrics::new()).expect("fallback");
    assert_eq!(got.score, oracle.score);
    assert_eq!(got.path, oracle.path);
    // Everything ran on the coordinator.
    assert!(registry.counter(names::SHARD_TASKS_INPROCESS_TOTAL).get() > 0);
    assert_eq!(
        registry.counter(names::SHARD_TASKS_COMPLETED_TOTAL).get(),
        0
    );

    // And with the fallback disabled, the same fleet is a typed error.
    let mut opts = ShardOptions::new(2, vec!["/nonexistent/flsa-shard-worker".to_string()]);
    opts.policy.fallback_inprocess = false;
    match align_sharded(&a, &b, "dna", -3, cfg, &opts, &Metrics::new()) {
        Err(ShardError::NoWorkers { .. }) => {}
        other => panic!("expected NoWorkers, got {other:?}"),
    }
}

#[test]
fn healthy_run_counts_tasks_and_returns_gauges_to_baseline() {
    let (a, b) = pair(100, 9);
    let cfg = FastLsaConfig::new(4, 1 << 10);
    let registry = Arc::new(Registry::new());
    let mut opts = ShardOptions::new(2, worker_cmd());
    opts.registry = Some(Arc::clone(&registry));
    // A 1 ms beat, and every result write stalled 4 ms mid-frame (the
    // `slow` fault, a delay, not a failure): each worker's heartbeat
    // thread is then waiting on the output lock when a result finishes
    // and beats before the next result, so the run outlasts several
    // heartbeats however fast the host computes its blocks.
    opts.policy.heartbeat_ms = 1;
    opts.worker_faults = vec!["slow:4".to_string(); 2];
    let oracle = reference(&a, &b, -3, cfg);
    let got = align_sharded(&a, &b, "dna", -3, cfg, &opts, &Metrics::new()).expect("sharded");
    assert_eq!(got.path, oracle.path);

    let dispatched = registry.counter(names::SHARD_TASKS_DISPATCHED_TOTAL).get();
    let completed = registry.counter(names::SHARD_TASKS_COMPLETED_TOTAL).get();
    assert!(
        dispatched >= 15,
        "expected a real task fan-out, got {dispatched}"
    );
    assert_eq!(completed, dispatched, "every dispatch completed");
    assert_eq!(
        registry.counter(names::SHARD_WORKERS_SPAWNED_TOTAL).get(),
        2
    );
    assert!(registry.counter(names::SHARD_HEARTBEATS_TOTAL).get() > 0);
    for gauge in [
        names::SHARD_WORKERS_LIVE,
        names::SHARD_WORKERS_QUARANTINED,
        names::SHARD_TASKS_INFLIGHT,
    ] {
        assert_eq!(registry.gauge(gauge).get(), 0, "{gauge} not at baseline");
    }
}
