//! The programs under test, the specialization requests the benchmark
//! sends, and the host-side references every output is checked against.
//!
//! Three kinds of process image ("targets") host the requests:
//!
//! - [`Scalar`]: `madd`, `churn` and `poly`, compiled from [`SCALAR_SRC`];
//!   checked against closed-form sums.
//! - [`StencilTarget`]: the paper's stencil program at one matrix width;
//!   checked against [`Stencil::host_checksum`].
//! - [`PgasTarget`]: the PGAS reduction; checked against
//!   [`PgasArray::host_sum`].
//!
//! A [`SpecializationManager`] caches by `(function address, request
//! fingerprint)` and knows nothing of images, so every target carries its
//! own gated manager: two images compile functions to the same
//! addresses, and one manager over both could answer a request with the
//! other image's code.

use brew_core::{
    PassConfig, PublishGate, PublishRejection, RetKind, RewriteResult, SpecRequest,
    SpecializationManager,
};
use brew_emu::{CallArgs, Machine, Stats};
use brew_image::Image;
use brew_pgas::PgasArray;
use brew_stencil::{Stencil, Variant as SweepKind, SG_SIZE, S_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scalar kernels. `madd` is the C5 serving kernel: a known trip count
/// `b` unrolls into a straight-line variant whose size grows with `b`.
/// `churn` is its sibling, republished and invalidated by the writer
/// thread. `poly` is the A5 guarded-dispatch kernel.
pub const SCALAR_SRC: &str = r#"
    int madd(int x, int b) {
        int acc = 0;
        for (int i = 0; i < b; i++) {
            int k = (i * 3 + b) * (i * 5 + 7);
            acc = acc + x + k + i;
        }
        return acc;
    }
    int churn(int x, int b) {
        int acc = 0;
        for (int i = 0; i < b; i++) acc = acc + x * 2 + i;
        return acc;
    }
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
"#;

/// Host reference for `madd(x, b)`: Σ_{i<b} x + (3i+b)(5i+7) + i in
/// closed form, 15·Σi² + (22+5b)·Σi + b·(x+7b).
pub fn madd_host(x: i64, b: i64) -> i64 {
    let s1 = b * (b - 1) / 2;
    let s2 = (b - 1) * b * (2 * b - 1) / 6;
    15 * s2 + (22 + 5 * b) * s1 + b * (x + 7 * b)
}

/// Host reference for `churn(x, b)` = 2xb + b(b-1)/2.
pub fn churn_host(x: i64, b: i64) -> i64 {
    2 * x * b + b * (b - 1) / 2
}

/// Host reference for `poly(x, n)` = xⁿ (wrapping, as the guest computes).
pub fn poly_host(x: i64, n: i64) -> i64 {
    x.wrapping_pow(n as u32)
}

/// A gated manager, as every publish in the benchmark goes through. With
/// `clock`, the gate's inspections are timed into it (traced runs).
pub fn gated_manager(clock: Option<&Arc<AtomicU64>>) -> SpecializationManager {
    let gate = brew_verify::publish_gate();
    let gate = match clock {
        Some(ns) => Box::new(TimedGate {
            inner: gate,
            ns: Arc::clone(ns),
        }),
        None => gate,
    };
    SpecializationManager::builder().publish_gate(gate).build()
}

/// The publish gate with a stopwatch around it: every inspection adds its
/// wall time to `ns`, so a traced run can split a gated publish into the
/// rewrite, the gate and the manager's own work.
struct TimedGate {
    inner: Box<dyn PublishGate>,
    ns: Arc<AtomicU64>,
}

impl PublishGate for TimedGate {
    fn inspect(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &RewriteResult,
    ) -> Result<(), PublishRejection> {
        let t = Instant::now();
        let verdict = self.inner.inspect(img, func, req, res);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        verdict
    }
}

/// The pass selection of a request: the default pipeline, or with the
/// proof-gated aggressive coalescing switched on.
pub fn passes(aggressive: bool) -> PassConfig {
    PassConfig {
        regalloc_aggressive: aggressive,
        ..PassConfig::default()
    }
}

/// `f(x, known)` returning an int — the shape of every scalar request.
pub fn scalar_request(known: i64, aggressive: bool) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(known)
        .ret(RetKind::Int)
        .passes(passes(aggressive))
}

/// Image holding the scalar kernels.
pub struct Scalar {
    /// The process image.
    pub img: Image,
    /// Entry of `madd`.
    pub madd: u64,
    /// Entry of `churn`.
    pub churn: u64,
    /// Entry of `poly`.
    pub poly: u64,
}

impl Scalar {
    /// Compile [`SCALAR_SRC`] into a fresh image. Compilation is
    /// deterministic, so every boot places functions and JIT code at the
    /// same addresses — what a checkpoint's warm start relies on.
    pub fn boot() -> Scalar {
        let img = Image::new();
        let prog = brew_minic::compile_into(SCALAR_SRC, &img).expect("scalar kernels compile");
        let f = |n: &str| prog.func(n).expect("kernel symbol");
        Scalar {
            madd: f("madd"),
            churn: f("churn"),
            poly: f("poly"),
            img,
        }
    }
}

/// A stencil image at one matrix width.
pub struct StencilTarget {
    /// The stencil harness (image, programs, matrices).
    pub s: Stencil,
    /// The gated manager publishing into `s.img`.
    pub mgr: SpecializationManager,
}

impl StencilTarget {
    /// Compile the stencil program over an `xs`×`ys` matrix pair.
    pub fn boot(xs: i64, ys: i64, clock: Option<&Arc<AtomicU64>>) -> StencilTarget {
        StencilTarget {
            s: Stencil::new(xs, ys),
            mgr: gated_manager(clock),
        }
    }

    /// Entry of a named stencil function.
    pub fn func(&self, name: &str) -> u64 {
        self.s.prog.func(name).expect("stencil symbol")
    }

    /// Figure 5: `apply` with `xs` and the descriptor known.
    pub fn apply_request(&self, aggressive: bool) -> SpecRequest {
        self.s.apply_request().passes(passes(aggressive))
    }

    /// §V.B: `apply_grouped` with `xs` and the grouped descriptor known.
    pub fn grouped_request(&self, aggressive: bool) -> SpecRequest {
        SpecRequest::new()
            .unknown_int()
            .known_int(self.s.xs)
            .ptr_to_known(self.s.sg5(), SG_SIZE)
            .ret(RetKind::F64)
            .passes(passes(aggressive))
    }

    /// §V.B outlook: the whole sweep with `unroll` loop-body variants.
    pub fn sweep_request(&self, unroll: u32, aggressive: bool) -> SpecRequest {
        let sweep = self.func("sweep_generic");
        let s5 = self.s.s5();
        SpecRequest::new()
            .unknown_int()
            .unknown_int()
            .known_int(self.s.xs)
            .known_int(self.s.ys)
            .known_mem(s5..s5 + S_SIZE)
            .ret(RetKind::Void)
            .func(sweep, |o| {
                o.branch_unknown = true;
                o.max_variants = unroll.max(1);
            })
            .max_code_bytes(1 << 22)
            .max_trace_insts(16_000_000)
            .passes(passes(aggressive))
    }

    /// Run `iters` sweeps through a specialized `apply` (or
    /// `apply_grouped`) from freshly initialized matrices and check the
    /// checksum against the host reference plus `skew`.
    pub fn run_apply(
        &mut self,
        m: &mut Machine,
        entry: u64,
        grouped: bool,
        iters: u32,
        skew: f64,
    ) -> Check {
        self.s.reset_matrices();
        let host = self.s.host_checksum(iters) + skew;
        match self.s.run_with_apply(m, entry, grouped, iters) {
            Ok(st) => Check::of(self.s.checksum(iters) == host, st),
            Err(_) => Check::failed(),
        }
    }

    /// Run `iters` sweeps of `kind` from freshly initialized matrices and
    /// check the checksum against the host reference plus `skew`.
    pub fn run_sweep(&mut self, m: &mut Machine, kind: SweepKind, iters: u32, skew: f64) -> Check {
        self.s.reset_matrices();
        let host = self.s.host_checksum(iters) + skew;
        match self.s.run(m, kind, iters) {
            Ok(st) => Check::of(self.s.checksum(iters) == host, st),
            Err(_) => Check::failed(),
        }
    }
}

/// A PGAS image: one block-distributed array viewed from one node.
pub struct PgasTarget {
    /// The PGAS harness (image, program, storage).
    pub p: PgasArray,
    /// The gated manager publishing into `p.img`.
    pub mgr: SpecializationManager,
}

impl PgasTarget {
    /// Compile the PGAS library over an `n`-element array on `nnodes`.
    pub fn boot(n: i64, nnodes: i64, clock: Option<&Arc<AtomicU64>>) -> PgasTarget {
        PgasTarget {
            p: PgasArray::new(n, nnodes, 1.min(nnodes - 1)),
            mgr: gated_manager(clock),
        }
    }

    /// Entry of `gsum`.
    pub fn gsum(&self) -> u64 {
        self.p.prog.func("gsum").expect("gsum symbol")
    }

    /// P1: `gsum` with the distribution descriptor known and the
    /// accessor inlined.
    pub fn gsum_request(&self, aggressive: bool) -> SpecRequest {
        let gsum = self.gsum();
        SpecRequest::new()
            .unknown_int()
            .ptr_to_known(self.p.dist(), 24)
            .unknown_int()
            .ret(RetKind::F64)
            .func(gsum, |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            })
            .max_trace_insts(8_000_000)
            .passes(passes(aggressive))
    }

    /// Run `entry` as `gsum` and check against the host reference plus
    /// `skew`.
    pub fn run_gsum(&mut self, m: &mut Machine, entry: u64, skew: f64) -> Check {
        let host = self.p.host_sum() + skew;
        match self.p.gsum_with(m, entry) {
            Ok((v, st)) => Check::of(v == host, st),
            Err(_) => Check::failed(),
        }
    }
}

/// Outcome of running one variant in the emulator against its host
/// reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    /// Whether every output matched the host reference.
    pub ok: bool,
    /// Emulator statistics of the run.
    pub stats: Stats,
}

impl Check {
    /// A check with the given outcome and statistics.
    pub fn of(ok: bool, stats: Stats) -> Check {
        Check { ok, stats }
    }

    /// A check whose run did not complete.
    pub fn failed() -> Check {
        Check::default()
    }

    /// Fold another check into this one: all must pass.
    pub fn and(mut self, o: Check) -> Check {
        self.ok &= o.ok;
        self.stats.merge(&o.stats);
        self
    }
}

/// Call a scalar kernel `entry` as `f(x, known)` for each `x` and compare
/// with `host(x, known) + skew`.
pub fn run_scalar(
    img: &Image,
    m: &mut Machine,
    entry: u64,
    (known, xs): (i64, &[i64]),
    host: fn(i64, i64) -> i64,
    skew: i64,
) -> Check {
    let mut c = Check {
        ok: true,
        stats: Stats::default(),
    };
    for &x in xs {
        match m.call(img, entry, &CallArgs::new().int(x).int(known)) {
            Ok(out) => {
                c.ok &= out.ret_int as i64 == host(x, known) + skew;
                c.stats.merge(&out.stats);
            }
            Err(_) => c.ok = false,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_the_loops() {
        for b in 0..200 {
            for x in [-7, 0, 3, 1 << 20] {
                let lp: i64 = (0..b).map(|i| x + (i * 3 + b) * (i * 5 + 7) + i).sum();
                assert_eq!(madd_host(x, b), lp, "madd({x},{b})");
                let lp: i64 = (0..b).map(|i| x * 2 + i).sum();
                assert_eq!(churn_host(x, b), lp, "churn({x},{b})");
            }
        }
        assert_eq!(poly_host(3, 4), 81);
    }
}
