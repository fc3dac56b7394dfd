//! One "process" of the benchmark: the images a round of requests is
//! published into, the requests themselves, and how each published
//! variant is checked.

use crate::families::{
    gated_manager, madd_host, poly_host, run_scalar, scalar_request, Check, PgasTarget, Scalar,
    StencilTarget,
};
use brew_core::{RewriteError, SpecRequest, SpecializationManager, Variant};
use brew_emu::Machine;
use brew_image::Image;
use brew_stencil::Variant as SweepKind;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Which function a request specializes, and for what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `madd(x, b)` with `b` known.
    Madd {
        /// Known trip count.
        b: i64,
    },
    /// `poly(x, n)` with `n` known.
    Poly {
        /// Known exponent.
        n: i64,
    },
    /// Figure 5 `apply` on stencil target `t`.
    Apply {
        /// Index into [`World::stencils`].
        t: usize,
    },
    /// §V.B `apply_grouped` on stencil target `t`.
    Grouped {
        /// Index into [`World::stencils`].
        t: usize,
    },
    /// Whole-sweep rewrite with `unroll` body variants on stencil `t`.
    Sweep {
        /// Index into [`World::stencils`].
        t: usize,
        /// Loop-body variants before the loop closes.
        unroll: u32,
    },
    /// P1 `gsum` on PGAS target `t`.
    Gsum {
        /// Index into [`World::pgas`].
        t: usize,
    },
}

/// One specialization request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// What is specialized.
    pub kind: Kind,
    /// Whether the proof-gated aggressive coalescing is requested.
    pub aggressive: bool,
}

impl Req {
    /// A request with the default pass pipeline.
    pub fn plain(kind: Kind) -> Req {
        Req {
            kind,
            aggressive: false,
        }
    }

    /// Family name, for reports.
    pub fn family(&self) -> &'static str {
        match self.kind {
            Kind::Madd { .. } => "madd",
            Kind::Poly { .. } => "poly",
            Kind::Apply { .. } => "apply",
            Kind::Grouped { .. } => "apply_grouped",
            Kind::Sweep { .. } => "sweep",
            Kind::Gsum { .. } => "gsum",
        }
    }
}

/// The shape of a world: stencil `(xs, ys)` and PGAS `(n, nnodes)`
/// targets besides the scalar image every world has.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Stencil targets.
    pub stencils: Vec<(i64, i64)>,
    /// PGAS targets.
    pub pgas: Vec<(i64, i64)>,
}

/// Deliberate faults, so a self-test can show the output checks are not
/// vacuous. Never set by the command line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Compare outputs with a host reference that is off by one.
    pub wrong_reference: bool,
    /// Flip one bit in the first instruction of every published variant.
    pub flip_variant: bool,
}

/// Freshly booted images with their gated managers.
pub struct World {
    /// Scalar kernels.
    pub scalar: Scalar,
    /// Manager publishing into `scalar.img`.
    pub mgr: SpecializationManager,
    /// Stencil targets.
    pub stencils: Vec<StencilTarget>,
    /// PGAS targets.
    pub pgas: Vec<PgasTarget>,
    /// Wall time the publish gates of every manager spent, ns — present
    /// when booted with [`World::boot_timed`].
    pub gate_ns: Option<Arc<AtomicU64>>,
}

impl World {
    /// Compile every target of `shape` into fresh images.
    pub fn boot(shape: &Shape) -> World {
        Self::boot_with(shape, None)
    }

    /// [`World::boot`] with every manager's publish gate timed.
    pub fn boot_timed(shape: &Shape) -> World {
        Self::boot_with(shape, Some(Arc::new(AtomicU64::new(0))))
    }

    fn boot_with(shape: &Shape, gate_ns: Option<Arc<AtomicU64>>) -> World {
        let clock = gate_ns.as_ref();
        World {
            scalar: Scalar::boot(),
            mgr: gated_manager(clock),
            stencils: shape
                .stencils
                .iter()
                .map(|&(xs, ys)| StencilTarget::boot(xs, ys, clock))
                .collect(),
            pgas: shape
                .pgas
                .iter()
                .map(|&(n, nn)| PgasTarget::boot(n, nn, clock))
                .collect(),
            gate_ns,
        }
    }

    /// The image, manager, function and request that `r` addresses.
    pub fn resolve(&self, r: &Req) -> (&Image, &SpecializationManager, u64, SpecRequest) {
        let sc = &self.scalar;
        match r.kind {
            Kind::Madd { b } => (&sc.img, &self.mgr, sc.madd, scalar_request(b, r.aggressive)),
            Kind::Poly { n } => (&sc.img, &self.mgr, sc.poly, scalar_request(n, r.aggressive)),
            Kind::Apply { t } => {
                let st = &self.stencils[t];
                (
                    &st.s.img,
                    &st.mgr,
                    st.func("apply"),
                    st.apply_request(r.aggressive),
                )
            }
            Kind::Grouped { t } => {
                let st = &self.stencils[t];
                let f = st.func("apply_grouped");
                (&st.s.img, &st.mgr, f, st.grouped_request(r.aggressive))
            }
            Kind::Sweep { t, unroll } => {
                let st = &self.stencils[t];
                let f = st.func("sweep_generic");
                (
                    &st.s.img,
                    &st.mgr,
                    f,
                    st.sweep_request(unroll, r.aggressive),
                )
            }
            Kind::Gsum { t } => {
                let p = &self.pgas[t];
                (&p.p.img, &p.mgr, p.gsum(), p.gsum_request(r.aggressive))
            }
        }
    }

    /// Publish `r` through its gated manager.
    pub fn publish(&self, r: &Req) -> Result<Arc<Variant>, RewriteError> {
        let (img, mgr, func, req) = self.resolve(r);
        mgr.get_or_rewrite(img, func, &req)
    }

    /// Every manager of the world.
    pub fn managers(&self) -> impl Iterator<Item = &SpecializationManager> {
        std::iter::once(&self.mgr)
            .chain(self.stencils.iter().map(|s| &s.mgr))
            .chain(self.pgas.iter().map(|p| &p.mgr))
    }

    /// Apply `faults` to a freshly published variant at `entry`.
    pub fn inject(&self, r: &Req, entry: u64, faults: Faults) {
        if faults.flip_variant {
            let img = self.resolve(r).0;
            let mut byte = [0u8];
            img.read_bytes(entry, &mut byte)
                .expect("variant entry is mapped");
            img.write_bytes(entry, &[byte[0] ^ 0x08])
                .expect("variant entry is writable");
        }
    }

    /// Run the variant at `entry` published for `r` — on the seeded
    /// arguments `xs` for a scalar kernel, on the target's matrices or
    /// array otherwise — and compare with the host reference.
    pub fn check(
        &mut self,
        m: &mut Machine,
        r: &Req,
        entry: u64,
        xs: &[i64],
        faults: Faults,
    ) -> Check {
        let skew = i64::from(faults.wrong_reference);
        let img = &self.scalar.img;
        match r.kind {
            Kind::Madd { b } => run_scalar(img, m, entry, (b, xs), madd_host, skew),
            Kind::Poly { n } => run_scalar(img, m, entry, (n, xs), poly_host, skew),
            Kind::Apply { t } => self.stencils[t].run_apply(m, entry, false, 1, skew as f64),
            Kind::Grouped { t } => self.stencils[t].run_apply(m, entry, true, 1, skew as f64),
            Kind::Sweep { t, .. } => {
                let kind = SweepKind::SpecializedSweep(entry);
                self.stencils[t].run_sweep(m, kind, 1, skew as f64)
            }
            Kind::Gsum { t } => self.pgas[t].run_gsum(m, entry, skew as f64),
        }
    }
}
