//! Differential gate for the post-rewrite register allocator: every
//! program the differential generator can produce must run **bit-
//! identically** with `PassConfig::regalloc` on and off, and the static
//! verifier must accept every allocated variant with zero findings.
//!
//! This is the pass's soundness contract from the issue: spilling back to
//! the original frame slot is always legal, so the allocator can refuse
//! work but never change behavior — and because it runs before publish,
//! the verifier's five rules (round-trip, CFG closure, stack discipline,
//! write containment, provenance) must hold on its output exactly as they
//! do on unallocated code.

use brew_suite::prelude::*;
use brew_suite::static_verify::{verify, VerifyOptions};
use proptest::prelude::*;

/// All other passes stay at their defaults: the comparison isolates the
/// allocator, not the whole pipeline.
fn with_regalloc(on: bool) -> PassConfig {
    PassConfig {
        regalloc: on,
        ..PassConfig::default()
    }
}

/// Rewrite `f` twice — allocator off, then on — and return both results.
/// Returns `None` when tracing itself faults (a legitimate outcome that
/// must be identical for both configurations).
fn rewrite_pair(img: &Image, f: u64, req: &SpecRequest) -> Option<(RewriteResult, RewriteResult)> {
    let off = Rewriter::new(img).rewrite(f, &req.clone().passes(with_regalloc(false)));
    let on = Rewriter::new(img).rewrite(f, &req.clone().passes(with_regalloc(true)));
    match (off, on) {
        (Ok(off), Ok(on)) => Some((off, on)),
        // The allocator runs after tracing: a trace fault cannot depend
        // on the pass selection.
        (Err(RewriteError::TraceFault { .. }), Err(RewriteError::TraceFault { .. })) => None,
        (off, on) => panic!("pass selection changed the rewrite outcome: {off:?} vs {on:?}"),
    }
}

/// The verifier must have zero false positives on allocated code: the
/// allocator only renames frame slots to registers and cleans up the
/// residue, all of which the five rules permit.
fn assert_verifier_clean(img: &Image, f: u64, req: &SpecRequest, res: &RewriteResult) {
    let report = verify(img, f, req, res, &VerifyOptions::default());
    assert!(
        report.passed(),
        "verifier false positive on allocated variant: {:?}",
        report.first_error()
    );
}

/// The same expression AST as `tests/differential.rs` (private there):
/// integer arithmetic with a never-zero divisor over a, b, c, t.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    C,
    T,
    Lit(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    DivSafe(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::C => "c".into(),
            E::T => "t".into(),
            E::Lit(v) => format!("({v})"),
            E::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            E::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            E::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            E::DivSafe(x, y) => {
                format!("({} / (({}) % 13 + 14))", x.render(), y.render())
            }
            E::Lt(x, y) => format!("({} < {})", x.render(), y.render()),
            E::Neg(x) => format!("(-{})", x.render()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        Just(E::C),
        Just(E::T),
        any::<i8>().prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Add(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Mul(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::DivSafe(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Lt(Box::new(x), Box::new(y))),
            inner.prop_map(|x| E::Neg(Box::new(x))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer corpus: branches, a bounded loop, safe division — under
    /// every known/unknown marking. Both variants must agree with the
    /// original and with each other on every probe, the allocator must
    /// never execute more instructions than the unallocated code, and
    /// the verifier must pass the allocated variant.
    #[test]
    fn regalloc_int_programs_bit_identical(
        init in arb_expr(),
        cond in arb_expr(),
        then_e in arb_expr(),
        loop_e in arb_expr(),
        loop_n in 0u8..6,
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-40i64..40),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 4),
    ) {
        let src = format!(
            r#"
            int f(int a, int b, int c) {{
                int t = 0;
                t = {init};
                if ({cond}) {{ t = t + {then_e}; }} else {{ t = t - 3; }}
                for (int i = 0; i < {loop_n}; i++) {{ t += {loop_e}; }}
                return t;
            }}
            "#,
            init = init.render(),
            cond = cond.render(),
            then_e = then_e.render(),
            loop_e = loop_e.render(),
        );
        let img = Image::new();
        let compiled = compile_into(&src, &img).unwrap();
        let f = compiled.func("f").unwrap();

        let mut req = SpecRequest::new().ret(RetKind::Int);
        for (i, &pin) in pins.iter().enumerate() {
            req = if spec_mask & (1 << i) != 0 {
                req.known_int(pin)
            } else {
                req.unknown_int()
            };
        }
        let Some((off, on)) = rewrite_pair(&img, f, &req) else { return Ok(()); };
        assert_verifier_clean(&img, f, &req, &on);

        let mut m = Machine::new();
        for probe in &probes {
            let mut vals = *probe;
            for i in 0..3 {
                if spec_mask & (1 << i) != 0 {
                    vals[i] = pins[i];
                }
            }
            let call = CallArgs::new().int(vals[0]).int(vals[1]).int(vals[2]);
            let orig = m.call(&img, f, &call);
            let a = m.call(&img, off.entry, &call);
            let b = m.call(&img, on.entry, &call);
            match (&orig, a, b) {
                (Ok(o), Ok(a), Ok(b)) => {
                    prop_assert_eq!(o.ret_int, a.ret_int, "unallocated diverged\n{}", src);
                    prop_assert_eq!(a.ret_int, b.ret_int, "regalloc changed behavior\n{}", src);
                    // "Never make code worse": spill fallback is the
                    // identity, so the allocated body cannot retire more
                    // instructions than the unallocated one.
                    prop_assert!(
                        b.stats.insts <= a.stats.insts,
                        "regalloc grew the dynamic path: {} -> {} insts\n{}",
                        a.stats.insts, b.stats.insts, src
                    );
                }
                (Err(_), Err(_), Err(_)) => {}
                (o, a, b) => panic!("divergent fault behavior: {o:?} / {a:?} / {b:?}\n{src}"),
            }
        }
    }

    /// Mixed-ABI corpus from the issue: a double parameter, an int
    /// parameter, and a pointer-to-struct parameter feeding both integer
    /// control flow and double arithmetic. Doubles compare by bits.
    #[test]
    fn regalloc_doubles_and_struct_pointers_bit_identical(
        u in any::<i16>(),
        w_num in -300i16..300,
        iexpr in arb_expr(),
        loop_n in 0u8..5,
        know_a in any::<bool>(),
        know_x in any::<bool>(),
        know_p in any::<bool>(),
        a_pin in -40i64..40,
        x_pin in -16.0f64..16.0,
        probes in proptest::collection::vec((-50i64..50, -24.0f64..24.0), 4),
    ) {
        let src = format!(
            r#"
            struct Pt {{ double w; int u; int v; }};
            struct Pt pt = {{{w:?}, {u}, 7}};
            double f(int a, double x, struct Pt* p) {{
                int b = p->u;
                int c = p->v;
                int t = 0;
                t = {iexpr};
                double acc = x;
                if (t < b) {{ acc = acc * p->w + x; }} else {{ acc = acc - p->w; }}
                for (int i = 0; i < {loop_n}; i++) {{ acc = acc * 0.5 + p->w; }}
                return acc;
            }}
            "#,
            w = w_num as f64 / 16.0,
            iexpr = iexpr.render(),
        );
        let img = Image::new();
        let compiled = compile_into(&src, &img).unwrap();
        let f = compiled.func("f").unwrap();
        let pt = compiled.global("pt").unwrap();

        let mut req = SpecRequest::new().ret(RetKind::F64);
        req = if know_a { req.known_int(a_pin) } else { req.unknown_int() };
        req = if know_x { req.known_f64(x_pin) } else { req.unknown_f64() };
        req = if know_p { req.ptr_to_known(pt, 24) } else { req.unknown_int() };
        let Some((off, on)) = rewrite_pair(&img, f, &req) else { return Ok(()); };
        assert_verifier_clean(&img, f, &req, &on);

        let mut m = Machine::new();
        for (pa, px) in &probes {
            let a = if know_a { a_pin } else { *pa };
            let x = if know_x { x_pin } else { *px };
            let call = CallArgs::new().int(a).f64(x).ptr(pt);
            let orig = m.call(&img, f, &call);
            let va = m.call(&img, off.entry, &call);
            let vb = m.call(&img, on.entry, &call);
            match (&orig, va, vb) {
                (Ok(o), Ok(va), Ok(vb)) => {
                    prop_assert_eq!(o.ret_f64.to_bits(), va.ret_f64.to_bits(), "{}", src);
                    prop_assert_eq!(
                        va.ret_f64.to_bits(), vb.ret_f64.to_bits(),
                        "regalloc changed f64 bits (know a={} x={} p={})\n{}",
                        know_a, know_x, know_p, src
                    );
                    prop_assert!(vb.stats.insts <= va.stats.insts, "{}", src);
                }
                (Err(_), Err(_), Err(_)) => {}
                (o, a, b) => panic!("divergent fault behavior: {o:?} / {a:?} / {b:?}\n{src}"),
            }
        }
    }

    /// Random stencil descriptors through the Figure-5 pipeline: the
    /// allocated variant agrees bit-exactly with the unallocated one and
    /// with the generic interpretation, and the verifier passes it.
    #[test]
    fn regalloc_random_stencils_bit_identical(
        points in proptest::collection::vec(
            ((-1i64..2), (-1i64..2), -4.0f64..4.0), 1..6),
        seed in any::<u32>(),
    ) {
        let n = points.len();
        let inits: Vec<String> = points
            .iter()
            .map(|(dx, dy, c)| format!("{{{c:?}, {dx}, {dy}}}"))
            .collect();
        let src = format!(
            r#"
            struct P {{ double f; int dx; int dy; }};
            struct S {{ int ps; struct P p[{n}]; }};
            struct S st = {{{n}, {{{init}}}}};
            double apply(double* m, int xs, struct S* s) {{
                double v = 0.0;
                for (int i = 0; i < s->ps; i++) {{
                    struct P* p = &s->p[i];
                    v += p->f * m[p->dx + xs * p->dy];
                }}
                return v;
            }}
            "#,
            init = inits.join(", "),
        );
        let img = Image::new();
        let prog = compile_into(&src, &img).unwrap();
        let apply = prog.func("apply").unwrap();
        let st = prog.global("st").unwrap();
        let xs = 5i64;

        let req = SpecRequest::new()
            .unknown_int()
            .known_int(xs)
            .ptr_to_known(st, 8 + n as u64 * 24)
            .ret(RetKind::F64);
        let (off, on) = rewrite_pair(&img, apply, &req).expect("stencil traces cleanly");
        assert_verifier_clean(&img, apply, &req, &on);

        let m0 = img.alloc_heap(25 * 8, 8);
        let mut state = seed as u64 + 1;
        for i in 0..25u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            img.write_f64(m0 + i * 8, ((state >> 33) % 1000) as f64 / 8.0).unwrap();
        }
        let mut m = Machine::new();
        for y in 1..4i64 {
            for x in 1..4i64 {
                let center = m0 + ((y * xs + x) * 8) as u64;
                let args = CallArgs::new().ptr(center).int(xs).ptr(st);
                let orig = m.call(&img, apply, &args).unwrap();
                let a = m.call(&img, off.entry, &args).unwrap();
                let b = m.call(&img, on.entry, &args).unwrap();
                prop_assert_eq!(orig.ret_f64.to_bits(), a.ret_f64.to_bits());
                prop_assert_eq!(a.ret_f64.to_bits(), b.ret_f64.to_bits(),
                    "regalloc changed stencil {:?} at ({},{})", points, x, y);
                prop_assert!(b.stats.insts <= a.stats.insts);
            }
        }
    }
}

/// The §V workload variants the issue names explicitly: the Figure-5
/// stencil `apply` and the §V.B grouped-coefficient `apply_grouped`, both
/// allocated, must verify clean and agree bit-exactly with their
/// unallocated twins on a full interior sweep.
#[test]
fn allocated_stencil_and_grouped_variants_verify_and_agree() {
    let mut st = brew_stencil::Stencil::new(64, 64);

    // Generic apply: off/on pair via the A2 ablation hook.
    let off = st
        .specialize_apply_with_passes(&with_regalloc(false))
        .unwrap();
    let on = st
        .specialize_apply_with_passes(&with_regalloc(true))
        .unwrap();
    let apply = st.prog.func("apply").unwrap();
    let req = st.apply_request();
    assert_verifier_clean(&st.img, apply, &req, &on);

    // Grouped apply (default passes include the allocator).
    let grouped = st.specialize_apply_grouped().unwrap();
    let apply_grouped = st.prog.func("apply_grouped").unwrap();
    let sg5 = st.sg5();
    let grouped_req = SpecRequest::new()
        .unknown_int()
        .known_int(st.xs)
        .ptr_to_known(sg5, brew_stencil::SG_SIZE)
        .ret(RetKind::F64);
    assert_verifier_clean(&st.img, apply_grouped, &grouped_req, &grouped);

    // Whole-sweep equivalence: every interior point of the seeded matrix.
    let s5 = st.s5();
    let xs = st.xs;
    let m0 = st.m1;
    let mut m = Machine::new();
    for y in 1..(st.ys - 1) {
        for x in 1..(xs - 1) {
            let center = m0 + ((y * xs + x) * 8) as u64;
            let args = CallArgs::new().ptr(center).int(xs).ptr(s5);
            let o = m.call(&st.img, apply, &args).unwrap().ret_f64;
            let a = m.call(&st.img, off.entry, &args).unwrap().ret_f64;
            let b = m.call(&st.img, on.entry, &args).unwrap().ret_f64;
            assert_eq!(
                o.to_bits(),
                a.to_bits(),
                "unallocated diverged at ({x},{y})"
            );
            assert_eq!(a.to_bits(), b.to_bits(), "regalloc diverged at ({x},{y})");
        }
    }
}

/// Frame compression keeps the entry-RSP frame tags of the accesses it
/// rebases, so the slot allocator sees every access to a slot. With the
/// tags cleared it saw only half of some slots and allocated them: the
/// whole-sweep rewrite and the PGAS `gsum` then computed wrong results,
/// which the prover rejects. Under the default passes each must match
/// its host reference and pass every verifier rule, the prover included.
#[test]
fn frame_tags_survive_compression_on_sweep_and_gsum() {
    let mut m = Machine::new();
    for unroll in [1, 2] {
        let mut st = Stencil::new(32, 32);
        let host = st.host_checksum(2);
        let sweep = st.prog.func("sweep_generic").unwrap();
        let req = st.sweep_request(unroll);
        let res = st.specialize_sweep(unroll).unwrap();
        st.run(&mut m, Variant::SpecializedSweep(res.entry), 2)
            .unwrap();
        assert_eq!(
            st.checksum(2).to_bits(),
            host.to_bits(),
            "sweep unroll {unroll}"
        );
        assert_verifier_clean(&st.img, sweep, &req, &res);
    }

    let mut p = PgasArray::new(240, 4, 1);
    let gsum = p.prog.func("gsum").unwrap();
    let req = p.gsum_request();
    let res = p.specialize_gsum().unwrap();
    let (sum, _) = p.gsum_with(&mut m, res.entry).unwrap();
    assert_eq!(sum.to_bits(), p.host_sum().to_bits(), "gsum");
    assert_verifier_clean(&p.img, gsum, &req, &res);
}
