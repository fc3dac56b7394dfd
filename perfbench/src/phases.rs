//! The five measured phases every workload runs, and the set-up they
//! share. The publish, warm-start, dispatch and churn phases each do a
//! fixed amount of work per block (whole publish rounds, warm starts,
//! read units); the kernel phase repeats until its deadline. Each
//! measured unit is preceded by a probe (see `quiet.rs`).
//!
//! Timed regions cover only the call into the system; booting images,
//! emulator checks and bookkeeping happen outside them.

use crate::families::{
    churn_host, gated_manager, madd_host, poly_host, run_scalar, scalar_request, Check, Scalar,
};
use crate::quiet::{probe, Probed};
use crate::report::Tally;
use crate::rng::{Rng, Zipf};
use crate::stats::{Histogram, Samples};
use crate::trace::TraceLog;
use crate::workload::{
    kernel_shape, served_bs, Workload, CHURN_B0, CHURN_KEYS, HEAD_KEYS, HEAD_PCT, KERNELS,
    KERNEL_ITERS, MADD_B, POLY_HOT_N, WRITER_RATE,
};
use crate::world::{Faults, Kind, Req, Shape, World};
use brew_core::telemetry::metrics::Ctr;
use brew_core::{Dispatch, Invalidation, Rewriter, SpecRequest, SpecializationManager};
use brew_emu::Machine;
use brew_stencil::Variant as SweepKind;
use brew_verify::VerifyOptions;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Emulator instruction budget per call: far above any kernel here, low
/// enough that a corrupted variant stuck in a loop fails in about a
/// second instead of hanging the run.
const CHECK_FUEL: u64 = 1 << 24;

/// Pass span names of the rewriter, in pipeline order.
const PASS_SPANS: [&str; 7] = [
    "redundant-load-elim",
    "dead-store-elim",
    "slot-promotion",
    "peephole",
    "frame-compression",
    "regalloc",
    "peephole-2",
];

/// A machine for checking variants.
fn checker() -> Machine<'static> {
    let mut m = Machine::new();
    m.fuel = CHECK_FUEL;
    m
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Counters summed over every manager a run created.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagerCounts {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (rewrites led).
    pub misses: u64,
    /// Budget evictions.
    pub evictions: u64,
    /// Publish-gate rejections.
    pub verify_rejected: u64,
    /// Aggressive-regalloc proofs that failed and fell back.
    pub fallbacks: u64,
}

impl ManagerCounts {
    /// Add `mgr`'s counters.
    pub fn absorb(&mut self, mgr: &SpecializationManager) {
        let st = mgr.stats();
        let m = mgr.metrics();
        self.hits += st.hits;
        self.misses += st.misses;
        self.evictions += st.evictions;
        self.verify_rejected += m.counter(Ctr::VerifyRejected).get();
        self.fallbacks += m.counter(Ctr::RegallocFallback).get();
    }
}

/// State shared by the phases of one run.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The stream seed.
    pub seed: u64,
    /// Deliberate faults (self-test only).
    pub faults: Faults,
    /// Correctness tally.
    pub tally: Tally,
    /// Manager counters.
    pub counts: ManagerCounts,
    /// Span log, in a traced run.
    pub trace: Option<TraceLog>,
    /// Next publish round of the stream.
    pub next_round: u64,
    /// Next request id (the span log's track).
    pub next_request: u64,
    /// Writer publishes so far: the next one's `churn` key.
    pub next_write: u64,
    /// Round-0 variant code checked in the emulator, by world shape,
    /// request and entry: an identical republish needs no second run.
    pub validated: HashMap<(Shape, Req, u64), Vec<u8>>,
}

impl Ctx {
    /// A fresh context.
    pub fn new(workload: Workload, seed: u64, faults: Faults, trace: bool) -> Ctx {
        Ctx {
            workload,
            seed,
            faults,
            tally: Tally::default(),
            counts: ManagerCounts::default(),
            trace: trace.then(|| TraceLog::new(64)),
            next_round: 0,
            next_request: 0,
            next_write: 0,
            validated: HashMap::new(),
        }
    }
}

/// The served variant set: a gated manager holding the [`SERVED_KEYS`]
/// `madd` keys, with each key's request and published entry.
///
/// [`SERVED_KEYS`]: crate::workload::SERVED_KEYS
pub struct Served {
    /// The image the set lives in.
    pub scalar: Scalar,
    /// Its gated manager.
    pub mgr: SpecializationManager,
    /// Known trip count per key, most popular first.
    pub bs: Vec<i64>,
    /// Request per key.
    pub reqs: Vec<SpecRequest>,
    /// Published entry per key.
    pub entries: Vec<u64>,
    /// The checkpoint of the set.
    pub checkpoint: Vec<u8>,
}

/// Set-up: compile the three program sources, then publish the served
/// set through a gated manager and checkpoint it. Returns the wall time
/// of the whole set-up, the compile time and the served set.
pub fn setup(ctx: &mut Ctx) -> (Duration, Duration, Served) {
    let t0 = Instant::now();
    let mut compile = Duration::ZERO;
    for src in [
        crate::families::SCALAR_SRC,
        brew_stencil::programs::STENCIL_PROGRAM,
        brew_pgas::PGAS_PROGRAM,
    ] {
        let img = brew_image::Image::new();
        let t = Instant::now();
        let ok = brew_minic::compile_into(src, &img).is_ok();
        compile += t.elapsed();
        ctx.tally.note(ok);
    }
    let served = build_served(ctx);
    (t0.elapsed(), compile, served)
}

fn build_served(ctx: &mut Ctx) -> Served {
    let scalar = Scalar::boot();
    let mgr = gated_manager(None);
    let bs = served_bs(ctx.seed);
    let reqs: Vec<SpecRequest> = bs.iter().map(|&b| scalar_request(b, false)).collect();
    let mut entries = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let entry = match mgr.get_or_rewrite(&scalar.img, scalar.madd, req) {
            Ok(v) => v.entry,
            Err(_) => {
                ctx.tally.note(false);
                0
            }
        };
        entries.push(entry);
    }
    let checkpoint = mgr.save_variant_bytes(&scalar.img);
    Served {
        scalar,
        mgr,
        bs,
        reqs,
        entries,
        checkpoint,
    }
}

/// What the publish phase measured.
#[derive(Default)]
pub struct PublishOut {
    /// Request → published latency per publish, ms, each after a probe.
    pub latency_ms: Probed,
    /// Each publish's latency ÷ the median latency of its round.
    pub relative: Samples,
    /// Emitted bytes of round 0.
    pub round0_bytes: u64,
    /// Requests that asked for aggressive coalescing.
    pub aggressive: u64,
    /// Per-layer samples of a traced run, by metric name.
    pub layers: BTreeMap<&'static str, Samples>,
    /// Deterministic round-0 counts of a traced run, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl PublishOut {
    fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.entry(name).or_default().push(v);
    }

    fn count(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// Closed loop, one client: for `rounds` rounds of the stream, publish
/// the round's distinct requests through the gated managers of a freshly
/// booted world, then call every published variant in the emulator
/// against its host reference.
pub fn publish(ctx: &mut Ctx, rounds: u32) -> PublishOut {
    let mut out = PublishOut::default();
    let mut m = checker();
    for _ in 0..rounds {
        let i = ctx.next_round;
        ctx.next_round += 1;
        let round = ctx.workload.round(ctx.seed, i);
        let mut world = if ctx.trace.is_some() {
            World::boot_timed(&round.shape)
        } else {
            World::boot(&round.shape)
        };
        let first = out.latency_ms.values().len();
        for r in &round.reqs {
            out.aggressive += u64::from(r.aggressive);
            let id = ctx.next_request;
            ctx.next_request += 1;
            let probe_us = probe();
            let published = if ctx.trace.is_some() {
                publish_traced(ctx, &world, r, id, i == 0, probe_us, &mut out)
            } else {
                let t = Instant::now();
                let v = world.publish(r);
                out.latency_ms
                    .push(probe_us, t.elapsed().as_secs_f64() * 1e3);
                v.ok()
            };
            let Some(v) = published else {
                ctx.tally.note(false);
                continue;
            };
            if i == 0 {
                out.round0_bytes += v.code_len as u64;
            }
            world.inject(r, v.entry, ctx.faults);
            let mut code = vec![0u8; v.code_len];
            let read = world.resolve(r).0.read_bytes(v.entry, &mut code).is_ok();
            let key = (round.shape.clone(), *r, v.entry);
            let ok = if read && ctx.validated.get(&key) == Some(&code) {
                true
            } else {
                let ok = read && world.check(&mut m, r, v.entry, &round.xs, ctx.faults).ok;
                // Round 0 is the reference a repeated round is compared
                // with; remembering only it keeps memory flat.
                if ok && i == 0 {
                    ctx.validated.insert(key, code);
                }
                ok
            };
            ctx.tally.note(ok);
        }
        let round_lat = out.latency_ms.values().since(first);
        out.relative
            .extend(&round_lat.scaled(1.0 / round_lat.median()));
        for mgr in world.managers() {
            ctx.counts.absorb(mgr);
        }
    }
    out
}

/// One publish of a traced run, layer by layer after an untimed warm-up
/// rewrite: the rewrite with its span tree, the structural rules, the
/// full verifier, then the gated manager (untraced inside), whose
/// variant is the one checked.
fn publish_traced(
    ctx: &mut Ctx,
    world: &World,
    r: &Req,
    id: u64,
    round0: bool,
    probe_us: f64,
    out: &mut PublishOut,
) -> Option<std::sync::Arc<brew_core::Variant>> {
    let (img, mgr, func, req) = world.resolve(r);
    let log = ctx.trace.as_mut().expect("traced run");
    let opts = VerifyOptions::default();

    // The first rewrite of a request in a fresh image runs 10–20% slower
    // than the next (cold caches). One untimed rewrite first, so the layer
    // calls below and the manager's call after them all run warm.
    let _ = Rewriter::new(img).rewrite(func, &req);
    let s0 = log.now_ns();
    let t = Instant::now();
    let traced = Rewriter::new(img).rewrite_with_trace(func, &req);
    let rewrite = t.elapsed();
    let Ok((res, rec)) = traced else {
        return None;
    };
    let s1 = log.now_ns();
    let t = Instant::now();
    let region = brew_verify::verify_region(
        img,
        func,
        &req,
        res.entry,
        res.code_len,
        &res.snapshot,
        &opts,
    );
    let structural = t.elapsed();
    let s2 = log.now_ns();
    let t = Instant::now();
    let full = brew_verify::verify(img, func, &req, &res, &opts);
    let verify = t.elapsed();
    let gate_clock = world
        .gate_ns
        .as_ref()
        .expect("traced world times its gates");
    let gate_before = gate_clock.load(Ordering::Relaxed);
    let s3 = log.now_ns();
    let t = Instant::now();
    let published = mgr.get_or_rewrite(img, func, &req);
    let gated = t.elapsed();
    let s4 = log.now_ns();
    let gate = Duration::from_nanos(gate_clock.load(Ordering::Relaxed) - gate_before);

    log.span(id, r.family(), "publish", s0, s4 - s0);
    log.span(id, "rewrite", "layer", s0, s1 - s0);
    log.nest(id, s0, &rec);
    log.span(id, "verify_region", "layer", s1, s2 - s1);
    log.span(id, "verify", "layer", s2, s3 - s2);
    log.span(id, "manager.get_or_rewrite", "layer", s3, s4 - s3);

    let span_us = |n: &str| rec.span_ns(n) as f64 / 1e3;
    let (tracer, passes, emit) = (span_us("trace"), span_us("passes"), span_us("emit"));
    out.layer("tracer.us", tracer);
    out.layer("passes.us", passes);
    out.layer("emit.us", emit);
    out.layer("rewrite.us", tracer + passes + emit);
    let mut in_passes = 0.0;
    for (name, metric) in PASS_SPANS.iter().zip(PASS_METRICS) {
        in_passes += span_us(name);
        out.layer(metric, span_us(name));
    }
    out.layer("passes.self_us", passes - in_passes);
    let prover = us(verify) - us(structural);
    out.layer("verify.structural_us", us(structural));
    out.layer("verify.prover_us", prover);
    out.layer(
        "verify.prover_us_per_inst",
        prover / full.insts.max(region.insts).max(1) as f64,
    );
    if round0 {
        out.count("tracer.guest_insts", res.stats.traced);
        out.count("tracer.blocks", res.stats.blocks);
        out.count("passes.removed", res.stats.pass_removed);
        out.count("emit.bytes", res.code_len as u64);
    }
    let v = published.ok()?;
    // The manager's own rewrite and gate are untraced: what its call took
    // beyond its rewrite phases and its gate inspections is its overhead.
    let overhead = us(gated) - v.stats.total_ns() as f64 / 1e3 - us(gate);
    out.layer("manager.publish_overhead_us", overhead);
    out.layer("trace.untraced_publish_ms", gated.as_secs_f64() * 1e3);
    out.layer(
        "trace.publish_ms",
        (us(rewrite) + us(verify) + overhead) / 1e3,
    );
    // The layers, each timed around its own call, against the manager's
    // publish timed as one interval; its overhead is left out, since it is
    // that interval's remainder.
    out.layer(
        "trace.accounted_share",
        (tracer + passes + emit + us(verify)) / us(gated),
    );
    out.latency_ms.push(probe_us, gated.as_secs_f64() * 1e3);
    Some(v)
}

/// Per-pass metric names, matching [`PASS_SPANS`].
pub const PASS_METRICS: [&str; 7] = [
    "pass.redundant-load-elim.us",
    "pass.dead-store-elim.us",
    "pass.slot-promotion.us",
    "pass.peephole.us",
    "pass.frame-compression.us",
    "pass.regalloc.us",
    "pass.peephole-2.us",
];

/// What the warm-start phase measured.
#[derive(Default)]
pub struct WarmOut {
    /// Load time per variant per warm start, µs, each after a probe.
    pub us_per_variant: Probed,
    /// Checkpoint save time, µs (traced run).
    pub save_us: Samples,
}

/// Warm-start the served checkpoint into `starts` fresh images; every
/// start must republish every key at its recorded entry.
pub fn warm(ctx: &mut Ctx, served: &Served, starts: u32) -> WarmOut {
    let mut out = WarmOut::default();
    let keys = served.reqs.len();
    let mut m = checker();
    for start in 0..starts {
        let first = start == 0;
        let sc = Scalar::boot();
        let mgr = gated_manager(None);
        let probe_us = probe();
        let t = Instant::now();
        let loaded = mgr.load_variant_bytes(&sc.img, &served.checkpoint);
        let dt = t.elapsed();
        out.us_per_variant.push(probe_us, us(dt) / keys as f64);
        let ok = matches!(&loaded, Ok(r) if r.published == keys && r.rejected.is_empty());
        ctx.tally.note(ok);
        for (k, req) in served.reqs.iter().enumerate() {
            let d = mgr.request(&sc.img, sc.madd, req);
            let at = matches!(&d, Ok(Dispatch::Specialized(v)) if v.entry == served.entries[k]);
            ctx.tally.note(at);
            if first && at {
                let (b, skew) = (served.bs[k], i64::from(ctx.faults.wrong_reference));
                let entry = served.entries[k];
                let c = run_scalar(&sc.img, &mut m, entry, (b, &[0, 5, -9]), madd_host, skew);
                ctx.tally.note(c.ok);
            }
        }
        if ctx.trace.is_some() {
            let t = Instant::now();
            let bytes = mgr.save_variant_bytes(&sc.img);
            out.save_us.push(us(t.elapsed()));
            ctx.tally.note(bytes == served.checkpoint);
        }
        ctx.counts.absorb(&mgr);
    }
    out
}

/// Timed reads per read unit: one probe, 1024 untimed reads, then these.
pub const READ_UNIT: u32 = 16 << 10;

/// What a reader measured, per read unit.
#[derive(Default)]
pub struct ReadOut {
    /// Median request latency of each unit, ns, after the unit's probe.
    pub p50_ns: Probed,
    /// 99th-percentile request latency of each unit, ns.
    pub p99_ns: Probed,
    /// `SpecRequest::fingerprint` cost per call, ns, per unit (traced).
    pub fingerprint_ns: Samples,
}

/// What the writer measured.
#[derive(Default)]
pub struct WriteOut {
    /// How late each publish started against its schedule, µs.
    pub lateness_us: Samples,
    /// Publish latency counted from the scheduled time, ms.
    pub latency_ms: Samples,
    /// `(b, entry)` of every variant the writer published.
    pub published: Vec<(i64, u64)>,
    /// Publishes that failed.
    pub failed: u64,
}

/// One reader in a closed loop: `units` read units of `request` for
/// Zipf-drawn served keys, each answer checked to be the recorded
/// variant. A unit is a probe, 1024 untimed requests, then
/// [`READ_UNIT`] timed ones. The untimed requests refill the caches the
/// probe or the phase before evicted, which is their cost, not the read
/// path's.
fn read_loop(ctx: &mut Ctx, served: &Served, units: u32, stream: u64) -> ReadOut {
    let zipf = Zipf::new(served.reqs.len(), HEAD_KEYS, HEAD_PCT);
    let mut rng = Rng::new(ctx.seed, stream);
    let mut out = ReadOut::default();
    let (img, madd) = (&served.scalar.img, served.scalar.madd);
    let mut tally = Tally::default();
    for _ in 0..units {
        let probe_us = probe();
        let mut hist = Histogram::default();
        for i in 0..1024 + READ_UNIT {
            let k = zipf.draw(&mut rng);
            let req = &served.reqs[k];
            let t = Instant::now();
            let d = served.mgr.request(img, madd, req);
            let ns = t.elapsed().as_nanos() as u64;
            if i >= 1024 {
                hist.record(ns);
            }
            tally.note(matches!(&d, Ok(Dispatch::Specialized(v)) if v.entry == served.entries[k]));
        }
        out.p50_ns.push(probe_us, hist.quantile(0.5));
        out.p99_ns.push(probe_us, hist.quantile(0.99));
        if ctx.trace.is_some() {
            let t = Instant::now();
            let mut h = 0u64;
            for req in &served.reqs {
                h ^= std::hint::black_box(req).fingerprint();
            }
            std::hint::black_box(h);
            out.fingerprint_ns
                .push(t.elapsed().as_nanos() as f64 / served.reqs.len() as f64);
        }
    }
    ctx.tally.add(tally);
    out
}

/// The reader alone, `units` read units.
pub fn dispatch(ctx: &mut Ctx, served: &Served, units: u32) -> ReadOut {
    read_loop(ctx, served, units, 0xD1)
}

/// The reader, `units` read units, beside one writer thread that
/// publishes and invalidates `churn` variants through the same gated
/// manager at [`WRITER_RATE`] per second (open loop) until the reader is
/// done. The writer's variants are checked in the emulator after both
/// threads stop.
pub fn churn(ctx: &mut Ctx, served: &Served, units: u32) -> (ReadOut, WriteOut) {
    let stop = AtomicBool::new(false);
    let (img, churn_fn) = (&served.scalar.img, served.scalar.churn);
    let first_write = ctx.next_write;
    let (read, write) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut w = WriteOut::default();
            let period = Duration::from_secs_f64(1.0 / WRITER_RATE);
            let start = Instant::now();
            for k in 0u32.. {
                let due = start + period * k;
                // Woken early when the reader is done.
                loop {
                    let now = Instant::now();
                    if due <= now || stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::park_timeout(due - now);
                }
                if k > 0 && stop.load(Ordering::Acquire) {
                    break;
                }
                let begin = Instant::now();
                w.lateness_us.push(us(begin - due));
                let b = CHURN_B0 + ((first_write + u64::from(k)) % CHURN_KEYS as u64) as i64;
                match served
                    .mgr
                    .get_or_rewrite(img, churn_fn, &scalar_request(b, false))
                {
                    Ok(v) => w.published.push((b, v.entry)),
                    Err(_) => w.failed += 1,
                }
                w.latency_ms
                    .push((Instant::now() - due).as_secs_f64() * 1e3);
                served.mgr.apply_invalidation(Invalidation::Func(churn_fn));
            }
            w
        });
        let read = read_loop(ctx, served, units, 0xC4);
        stop.store(true, Ordering::Release);
        writer.thread().unpark();
        (read, writer.join().expect("writer thread"))
    });
    ctx.next_write += write.published.len() as u64 + write.failed;
    let mut m = checker();
    let skew = i64::from(ctx.faults.wrong_reference);
    for &(b, entry) in &write.published {
        let c = run_scalar(img, &mut m, entry, (b, &[0, 11]), churn_host, skew);
        ctx.tally.note(c.ok);
    }
    for _ in 0..write.failed {
        ctx.tally.note(false);
    }
    (read, write)
}

/// One kernel's emulated runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelRow {
    /// Model cycles of the specialized run.
    pub spec_cycles: u64,
    /// Instructions of the specialized run.
    pub spec_insts: u64,
    /// Model cycles of the generic original on the same inputs.
    pub generic_cycles: u64,
}

/// What the kernel phase measured.
#[derive(Default)]
pub struct KernelOut {
    /// Per-kernel rows of the first iteration, in [`KERNELS`] order.
    pub rows: Vec<(&'static str, KernelRow)>,
    /// Emitted bytes of the six kernels.
    pub bytes: u64,
    /// Emulated guest instructions per wall second, per iteration.
    pub insts_per_s: Samples,
}

/// Specialize each paper kernel once in a fresh kernel world and run it
/// and its generic original in the emulator, checking both against the
/// host reference; repeat until `deadline`. Every iteration must
/// reproduce the first one's cycle counts exactly.
pub fn kernels(ctx: &mut Ctx, deadline: Instant) -> KernelOut {
    let mut out = KernelOut::default();
    let mut m = checker();
    let skew = i64::from(ctx.faults.wrong_reference);
    loop {
        let mut w = World::boot(&kernel_shape());
        let mut rows = Vec::with_capacity(KERNELS.len());
        let mut bytes = 0;
        let mut insts = 0;
        let mut emu_time = Duration::ZERO;
        for &(name, kind) in &KERNELS {
            let r = Req::plain(kind);
            let Ok(v) = w.publish(&r) else {
                ctx.tally.note(false);
                continue;
            };
            bytes += v.code_len as u64;
            w.inject(&r, v.entry, ctx.faults);
            let t = Instant::now();
            let (generic, spec) = run_kernel(ctx.seed, &mut w, &mut m, kind, v.entry, skew);
            emu_time += t.elapsed();
            ctx.tally.note(generic.ok);
            ctx.tally.note(spec.ok);
            insts += generic.stats.insts + spec.stats.insts;
            rows.push((
                name,
                KernelRow {
                    spec_cycles: spec.stats.cycles,
                    spec_insts: spec.stats.insts,
                    generic_cycles: generic.stats.cycles,
                },
            ));
        }
        for mgr in w.managers() {
            ctx.counts.absorb(mgr);
        }
        out.insts_per_s.push(insts as f64 / emu_time.as_secs_f64());
        if out.rows.is_empty() {
            out.rows = rows;
            out.bytes = bytes;
        } else {
            ctx.tally.note(rows == out.rows && bytes == out.bytes);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out
}

/// Run kernel `kind` generic and specialized (`entry`) on the same
/// inputs; returns `(generic, specialized)` checks.
fn run_kernel(
    seed: u64,
    w: &mut World,
    m: &mut Machine,
    kind: Kind,
    entry: u64,
    skew: i64,
) -> (Check, Check) {
    let f = skew as f64;
    let mut rng = Rng::new(seed, 0x4B);
    match kind {
        Kind::Apply { t } => {
            let st = &mut w.stencils[t];
            let g = st.run_sweep(m, SweepKind::Generic, KERNEL_ITERS, f);
            (g, st.run_apply(m, entry, false, KERNEL_ITERS, f))
        }
        Kind::Grouped { t } => {
            let st = &mut w.stencils[t];
            let g = st.run_sweep(m, SweepKind::Grouped, KERNEL_ITERS, f);
            (g, st.run_apply(m, entry, true, KERNEL_ITERS, f))
        }
        Kind::Sweep { t, .. } => {
            let st = &mut w.stencils[t];
            let g = st.run_sweep(m, SweepKind::Generic, KERNEL_ITERS, f);
            let s = st.run_sweep(m, SweepKind::SpecializedSweep(entry), KERNEL_ITERS, f);
            (g, s)
        }
        Kind::Gsum { t } => {
            let p = &mut w.pgas[t];
            let original = p.gsum();
            (p.run_gsum(m, original, f), p.run_gsum(m, entry, f))
        }
        Kind::Poly { .. } => {
            // A5: the guard stub over the published variant against the
            // original, on one stream that is 90% the guarded exponent.
            let (img, mgr, poly) = (&w.scalar.img, &w.mgr, w.scalar.poly);
            let Ok(stub) = mgr.build_dispatcher(img, poly, poly) else {
                return (Check::failed(), Check::failed());
            };
            let mut hot: Vec<bool> = (0..200).map(|i| i < 180).collect();
            rng.shuffle(&mut hot);
            let (mut g, mut s) = (
                Check::of(true, Default::default()),
                Check::of(true, Default::default()),
            );
            for hot in hot {
                let n = if hot { POLY_HOT_N } else { POLY_HOT_N - 1 };
                let x = [rng.range(2, 9)];
                g = g.and(run_scalar(img, m, poly, (n, &x), poly_host, skew));
                s = s.and(run_scalar(img, m, stub, (n, &x), poly_host, skew));
            }
            (g, s)
        }
        Kind::Madd { .. } => {
            let xs: Vec<i64> = (0..16).map(|_| rng.range(-1000, 1000)).collect();
            let img = &w.scalar.img;
            let g = run_scalar(img, m, w.scalar.madd, (MADD_B, &xs), madd_host, skew);
            (g, run_scalar(img, m, entry, (MADD_B, &xs), madd_host, skew))
        }
    }
}
