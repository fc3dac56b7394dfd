//! The benchmark's own checks: its output checks catch wrong outputs,
//! its deterministic metrics repeat exactly, and its seed changes the
//! request stream. Run with `cargo test --release` in this directory.

use brew_perfbench::workload::served_bs;
use brew_perfbench::{run, Config, Faults, Workload, END_TO_END, PER_LAYER};
use std::sync::{Mutex, MutexGuard};

/// Held by every test: the traced test checks timings, which other tests
/// running beside it on a small machine would disturb.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const ALL: [Workload; 3] = [
    Workload::ColdPublish,
    Workload::HotDispatch,
    Workload::KernelRun,
];

/// The smallest run: one block, every phase doing its minimum of work.
fn tiny(workload: Workload, seed: u64, trace: bool, faults: Faults) -> Config {
    Config {
        faults,
        ..Config::new(workload, seed, 0.01, trace)
    }
}

#[test]
fn clean_runs_are_correct() {
    let _serial = serial();
    for w in ALL {
        let r = run(&tiny(w, 1, false, Faults::default())).report;
        assert!(r.correct(), "{}: {:?}", w.name(), r.tally);
        assert_eq!(r.get("fail_ratio"), Some(0.0));
        for name in END_TO_END {
            let v = r.get(name).unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let _serial = serial();
    for w in ALL {
        let out = run(&tiny(w, 1, true, Faults::default()));
        assert!(out.report.correct(), "{}", w.name());
        for name in PER_LAYER {
            let v = out.report.get(name).unwrap_or(f64::NAN);
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        let share = out.report.get("trace.accounted_share").expect("share");
        assert!((0.9..=1.1).contains(&share), "layers account for {share}");
        let log = out.trace.expect("span log");
        assert!(!log.is_empty());
        brew_core::validate_json(&log.chrome_json()).expect("chrome trace is JSON");
    }
}

#[test]
fn a_wrong_host_reference_is_caught() {
    let _serial = serial();
    let faults = Faults {
        wrong_reference: true,
        ..Faults::default()
    };
    for w in ALL {
        let r = run(&tiny(w, 2, false, faults)).report;
        assert!(!r.correct(), "{}", w.name());
        assert!(r.get("fail_ratio").expect("fail_ratio") > 0.0);
    }
}

#[test]
fn a_bit_flipped_variant_is_caught() {
    let _serial = serial();
    let faults = Faults {
        flip_variant: true,
        ..Faults::default()
    };
    for w in ALL {
        let r = run(&tiny(w, 3, false, faults)).report;
        assert!(!r.correct(), "{}", w.name());
        assert!(r.get("fail_ratio").expect("fail_ratio") > 0.0);
    }
}

/// Metrics that depend only on the seed, never on timing.
fn deterministic(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let r = run(&tiny(w, seed, true, Faults::default())).report;
    let mut names = vec![
        "code_bytes",
        "kernel_cycles_ratio",
        "tracer.guest_insts",
        "passes.removed",
    ];
    names.extend(
        PER_LAYER
            .iter()
            .filter(|n| n.starts_with("emu.model_cycles.")),
    );
    let untraced = run(&tiny(w, seed, false, Faults::default())).report;
    names
        .into_iter()
        .map(|n| {
            let v = r.get(n).expect("metric present");
            if let Some(u) = untraced.get(n) {
                assert_eq!(u.to_bits(), v.to_bits(), "{n}: traced and untraced differ");
            }
            (n, v)
        })
        .collect()
}

#[test]
fn the_same_seed_repeats_deterministic_metrics_bit_for_bit() {
    let _serial = serial();
    for w in ALL {
        let (a, b) = (deterministic(w, 7), deterministic(w, 7));
        for ((n, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}: {n}", w.name());
        }
    }
}

#[test]
fn another_seed_sends_another_stream() {
    let _serial = serial();
    for w in ALL {
        assert_ne!(w.round(7, 0), w.round(8, 0), "{}", w.name());
    }
    assert_ne!(served_bs(7), served_bs(8));
    let (a, b) = (
        deterministic(Workload::ColdPublish, 7),
        deterministic(Workload::ColdPublish, 8),
    );
    assert_ne!(
        a[0], b[0],
        "cold_publish code bytes should follow the stream"
    );
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    brew_core::validate_json(&json).expect("BENCHMARK.json is JSON");
    for w in ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (names, trace) in [(&END_TO_END[..], false), (&PER_LAYER[..], true)] {
        let r = run(&tiny(Workload::ColdPublish, 1, trace, Faults::default())).report;
        for n in names {
            let unit = r.metrics.get(*n).expect("metric measured").unit;
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    let entries = json.matches("\"name\":").count();
    assert_eq!(entries, ALL.len() + END_TO_END.len() + PER_LAYER.len());
}
