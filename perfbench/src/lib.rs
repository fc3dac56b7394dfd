//! # brew-perfbench — the BREW benchmark
//!
//! A standalone program over the public API of `brew-minic`, `brew-core`,
//! `brew-verify` and `brew-emu` (with the stencil and PGAS harnesses for
//! their host references). It times every layer from outside, around the
//! calls into it, and checks every output against a host-side reference,
//! never against the rewriter. See `README.md` in this directory for the
//! workloads, the metrics and how to run it.

#![warn(missing_docs)]

pub mod families;
pub mod phases;
pub mod quiet;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod world;

use brew_core::telemetry::metrics::Ctr;
use phases::{Ctx, PASS_METRICS};
use quiet::{probe, quiet_limit, Probed};
use report::Report;
use stats::{geomean, Samples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::TraceLog;
pub use workload::Workload;
pub use world::Faults;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "publish_p50_ms",
    "publish_p99_ms",
    "publish_per_s",
    "warm_start_us_per_variant",
    "dispatch_p50_ns",
    "dispatch_p99_ns",
    "dispatch_churn_p50_ns",
    "dispatch_churn_p99_ns",
    "kernel_cycles_ratio",
    "code_bytes",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: [&str; 56] = [
    "minic.compile_us",
    "tracer.us",
    "tracer.guest_insts",
    "tracer.blocks",
    "passes.us",
    "passes.self_us",
    "pass.redundant-load-elim.us",
    "pass.dead-store-elim.us",
    "pass.slot-promotion.us",
    "pass.peephole.us",
    "pass.frame-compression.us",
    "pass.regalloc.us",
    "pass.peephole-2.us",
    "passes.removed",
    "emit.us",
    "emit.bytes",
    "rewrite.us",
    "verify.structural_us",
    "verify.prover_us",
    "verify.prover_us_per_inst",
    "verify.prover_fallbacks",
    "manager.publish_overhead_us",
    "manager.fingerprint_ns",
    "manager.hits",
    "manager.misses",
    "manager.evictions",
    "manager.verify_rejected",
    "manager.epoch_published",
    "manager.epoch_reclaimed",
    "persist.save_us",
    "persist.load_us_per_variant",
    "persist.checkpoint_bytes",
    "emu.model_cycles.apply",
    "emu.model_cycles.apply_grouped",
    "emu.model_cycles.sweep_u4",
    "emu.model_cycles.gsum",
    "emu.model_cycles.poly_guard",
    "emu.model_cycles.madd",
    "emu.guest_insts.apply",
    "emu.guest_insts.apply_grouped",
    "emu.guest_insts.sweep_u4",
    "emu.guest_insts.gsum",
    "emu.guest_insts.poly_guard",
    "emu.guest_insts.madd",
    "emu.guest_insts_per_s",
    "fail_ratio",
    "trace.publish_p50_ms",
    "trace.untraced_publish_p50_ms",
    "trace.overhead_ms",
    "trace.accounted_share",
    "writer.lateness_p50_us",
    "writer.lateness_p99_us",
    "writer.publish_p99_ms",
    "writer.publishes",
    "machine.probe_us",
    "machine.quiet_share",
];

/// Set-up repetitions, spread evenly over the blocks of the run;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Measuring time: blocks of fixed work until the kernel phase's
    /// share is left, then the kernel phase.
    pub seconds: f64,
    /// Run the per-layer traced pipeline instead of the plain one.
    pub trace: bool,
    /// Deliberate faults (self-test only).
    pub faults: Faults,
}

impl Config {
    /// Settings for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            faults: Faults::default(),
        }
    }
}

/// The outcome of a run: its report and, when traced, the span log.
pub struct Outcome {
    /// Every metric measured.
    pub report: Report,
    /// The span log of a traced run.
    pub trace: Option<TraceLog>,
}

/// What one block measured.
struct Block {
    publish: phases::PublishOut,
    warm: phases::WarmOut,
    read: phases::ReadOut,
    churn: phases::ReadOut,
    write: phases::WriteOut,
}

impl Block {
    /// The reader's figures, alone or beside the writer.
    fn reads(&self, churn: bool) -> &phases::ReadOut {
        if churn {
            &self.churn
        } else {
            &self.read
        }
    }
}

/// Run one workload.
///
/// The run repeats blocks until the kernel phase's share of `--seconds`
/// is left. Every block does the same fixed work (the workload's
/// [`Work`](workload::Work)): its publish rounds, warm starts, reads
/// alone and reads beside the writer. The kernel phase then runs to the
/// end. Set-up runs [`SETUP_REPS`] times: once first, the rest between
/// blocks, spread evenly over the blocks' time.
///
/// Each wall-clock end-to-end metric is computed over the quiet units of
/// the run (see [`quiet`]): the median publish, warm start and set-up
/// that began on a quiet machine, and the median over the quiet read
/// units of each unit's p50 and p99. The quiet publishes are too few
/// for their own p99, and a pool of quiet and busy ones would be
/// dominated by the busy tail; so `publish_p99_ms` is `publish_p50_ms`
/// times the p99, over every publish, of its latency ÷ its round's
/// median. Sample counts are the quiet samples. Per-layer metrics pool
/// every block.
pub fn run(cfg: &Config) -> Outcome {
    let mut ctx = Ctx::new(cfg.workload, cfg.seed, cfg.faults, cfg.trace);
    let work = cfg.workload.work();
    let seconds = cfg.seconds.max(0.0);

    let mut setup = Probed::default();
    let mut compile = Samples::default();
    let mut set_up = |ctx: &mut Ctx| {
        let probe_us = probe();
        let (t, c, served) = phases::setup(ctx);
        setup.push(probe_us, t.as_secs_f64());
        compile.push(c.as_secs_f64() * 1e6);
        served
    };
    let served = set_up(&mut ctx);

    let start = Instant::now();
    let in_blocks = Duration::from_secs_f64(seconds * (1.0 - work.kernels));
    let mut blocks = Vec::new();
    let mut setups = 1;
    loop {
        let publish = phases::publish(&mut ctx, work.rounds);
        let warm = phases::warm(&mut ctx, &served, work.warm_starts);
        let read = phases::dispatch(&mut ctx, &served, work.read_units);
        let (churn, write) = phases::churn(&mut ctx, &served, work.churn_units);
        blocks.push(Block {
            publish,
            warm,
            read,
            churn,
            write,
        });
        let elapsed = start.elapsed();
        // The other set-ups are timed between blocks, spread over the
        // blocks' time; the last one after the last block.
        let due = in_blocks.mul_f64(setups as f64 / (SETUP_REPS - 1) as f64);
        if setups < SETUP_REPS && elapsed >= due {
            let extra = set_up(&mut ctx);
            ctx.counts.absorb(&extra.mgr);
            setups += 1;
        }
        if elapsed >= in_blocks {
            break;
        }
    }
    let kernels = phases::kernels(&mut ctx, start + Duration::from_secs_f64(seconds));
    let m = served.mgr.metrics();
    let epochs = (
        m.counter(Ctr::EpochPublished).get(),
        m.counter(Ctr::EpochReclaimed).get(),
    );
    ctx.counts.absorb(&served.mgr);

    let mut r = Report::default();

    // Every probe of the run sets what counts as quiet.
    let mut publishes = Probed::default();
    let mut warms = Probed::default();
    let mut probes = Samples::default();
    probes.extend(setup.probes());
    for b in &blocks {
        publishes.extend(&b.publish.latency_ms);
        warms.extend(&b.warm.us_per_variant);
        probes.extend(b.read.p50_ns.probes());
        probes.extend(b.churn.p50_ns.probes());
    }
    probes.extend(publishes.probes());
    probes.extend(warms.probes());
    let limit = quiet_limit(&probes);
    let quiet_probes = probes.iter().filter(|&p| p <= limit).count();

    let setups = setup.quiet(limit);
    r.set("setup_s", setups.median(), "s", setups.len() as u64);
    r.set(
        "minic.compile_us",
        compile.median(),
        "us",
        compile.len() as u64,
    );

    let lat = publishes.quiet(limit);
    let n = lat.len() as u64;
    r.set("publish_p50_ms", lat.median(), "ms", n);
    r.set("publish_per_s", n as f64 / (lat.sum() / 1e3), "1/s", n);
    // Latencies relative to their own round do not depend on how busy
    // the machine was: their p99, over every round, scales the p50.
    let mut relative = Samples::default();
    for b in &blocks {
        relative.extend(&b.publish.relative);
    }
    r.set(
        "publish_p99_ms",
        lat.median() * relative.quantile(0.99),
        "ms",
        relative.len() as u64,
    );
    r.set(
        "code_bytes",
        blocks[0].publish.round0_bytes as f64,
        "bytes",
        1,
    );

    let warm = warms.quiet(limit);
    r.set(
        "warm_start_us_per_variant",
        warm.median(),
        "us",
        warm.len() as u64,
    );

    for (name, churn) in [("dispatch", false), ("dispatch_churn", true)] {
        let (mut p50, mut p99) = (Probed::default(), Probed::default());
        for b in &blocks {
            p50.extend(&b.reads(churn).p50_ns);
            p99.extend(&b.reads(churn).p99_ns);
        }
        let (p50, p99) = (p50.quiet(limit), p99.quiet(limit));
        let reads = p50.len() as u64 * u64::from(phases::READ_UNIT);
        r.set(format!("{name}_p50_ns"), p50.median(), "ns", reads);
        r.set(format!("{name}_p99_ns"), p99.median(), "ns", reads);
    }

    let rows = &kernels.rows;
    let ratios: Vec<f64> = rows
        .iter()
        .map(|(_, k)| k.spec_cycles as f64 / k.generic_cycles.max(1) as f64)
        .collect();
    r.set(
        "kernel_cycles_ratio",
        geomean(&ratios),
        "ratio",
        ratios.len() as u64,
    );
    r.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    r.set(
        "machine.probe_us",
        limit / quiet::QUIET_SLACK,
        "us",
        probes.len() as u64,
    );
    r.set(
        "machine.quiet_share",
        quiet_probes as f64 / probes.len() as f64,
        "ratio",
        probes.len() as u64,
    );

    // Per-layer metrics: every block pooled.
    let mut layers: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut pooled = |name: &'static str, s: &Samples| layers.entry(name).or_default().extend(s);
    for b in &blocks {
        for (name, s) in &b.publish.layers {
            pooled(name, s);
        }
        pooled(
            "persist.load_us_per_variant",
            b.warm.us_per_variant.values(),
        );
        pooled("persist.save_us", &b.warm.save_us);
        pooled("manager.fingerprint_ns", &b.read.fingerprint_ns);
        pooled("writer.lateness_us", &b.write.lateness_us);
        pooled("writer.publish_ms", &b.write.latency_ms);
    }
    pooled("emu.guest_insts_per_s", &kernels.insts_per_s);
    for (name, s) in &layers {
        let n = s.len() as u64;
        match *name {
            "writer.lateness_us" => {
                r.set("writer.lateness_p50_us", s.median(), "us", n);
                r.set("writer.lateness_p99_us", s.quantile(0.99), "us", n);
            }
            "writer.publish_ms" => {
                r.set("writer.publish_p99_ms", s.quantile(0.99), "ms", n);
                r.set("writer.publishes", n as f64, "count", 1);
            }
            "trace.publish_ms" => r.set("trace.publish_p50_ms", s.median(), "ms", n),
            "trace.untraced_publish_ms" => {
                r.set("trace.untraced_publish_p50_ms", s.median(), "ms", n)
            }
            _ => r.set(*name, s.median(), layer_unit(name), n),
        }
    }
    if cfg.trace {
        let g = |n: &str| r.get(n).unwrap_or(f64::NAN);
        let overhead = g("trace.publish_p50_ms") - g("trace.untraced_publish_p50_ms");
        r.set("trace.overhead_ms", overhead, "ms", 1);
    }
    for (name, c) in &blocks[0].publish.counts {
        r.set(*name, *c as f64, "count", 1);
    }
    r.set(
        "persist.checkpoint_bytes",
        served.checkpoint.len() as f64,
        "bytes",
        1,
    );
    for (name, k) in rows {
        r.set(
            format!("emu.model_cycles.{name}"),
            k.spec_cycles as f64,
            "cycles",
            1,
        );
        r.set(
            format!("emu.guest_insts.{name}"),
            k.spec_insts as f64,
            "insts",
            1,
        );
    }
    r.set("manager.epoch_published", epochs.0 as f64, "count", 1);
    r.set("manager.epoch_reclaimed", epochs.1 as f64, "count", 1);
    let c = ctx.counts;
    r.set("manager.hits", c.hits as f64, "count", 1);
    r.set("manager.misses", c.misses as f64, "count", 1);
    r.set("manager.evictions", c.evictions as f64, "count", 1);
    r.set(
        "manager.verify_rejected",
        c.verify_rejected as f64,
        "count",
        1,
    );
    let aggressive: u64 = blocks.iter().map(|b| b.publish.aggressive).sum();
    let fallbacks = if aggressive == 0 {
        0.0
    } else {
        c.fallbacks as f64 / aggressive as f64
    };
    r.set("verify.prover_fallbacks", fallbacks, "ratio", aggressive);
    r.tally = ctx.tally;
    r.set("fail_ratio", r.tally.ratio(), "ratio", r.tally.attempted);
    Outcome {
        report: r,
        trace: ctx.trace,
    }
}

/// The traced run's self-time table: per publish (medians), each layer
/// the benchmark times around, with the passes' own self time (the
/// `passes` phase minus its pass spans), and how much of the manager's
/// untraced publish, timed as one interval, the layers timed one by one
/// account for.
pub fn layer_table(r: &Report) -> String {
    let g = |n: &str| r.get(n).unwrap_or(f64::NAN);
    let mut rows = vec![
        ("tracer", g("tracer.us")),
        ("passes (self)", g("passes.self_us")),
    ];
    rows.extend(PASS_METRICS.iter().map(|n| (*n, g(n))));
    rows.extend([
        ("emit", g("emit.us")),
        ("verify, structural rules", g("verify.structural_us")),
        ("verify, prover", g("verify.prover_us")),
        ("manager overhead", g("manager.publish_overhead_us")),
    ]);
    let mut s = format!("{:<34} {:>12}\n", "layer (self time per publish)", "p50 us");
    for (name, v) in &rows {
        s.push_str(&format!("{name:<34} {v:>12.1}\n"));
    }
    s.push_str(&format!(
        "{:<34} {:>12.1}\n{:<34} {:>12.1}\n",
        "rewrite = tracer + passes + emit",
        g("rewrite.us"),
        "prover",
        g("verify.prover_us"),
    ));
    s.push_str(&format!(
        "traced publish p50 {:.3} ms, untraced {:.3} ms (tracing overhead {:.3} ms); \
         tracer + passes + emit + verify account for {:.1}% of the untraced publish (median)",
        g("trace.publish_p50_ms"),
        g("trace.untraced_publish_p50_ms"),
        g("trace.overhead_ms"),
        100.0 * g("trace.accounted_share"),
    ));
    s
}

/// The unit of a pooled per-layer timing, from its name's suffix.
fn layer_unit(name: &str) -> &'static str {
    [
        ("_ms", "ms"),
        ("_ns", "ns"),
        ("_share", "ratio"),
        ("_per_inst", "us/inst"),
        ("_per_s", "insts/s"),
    ]
    .iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("us", |&(_, unit)| unit)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
