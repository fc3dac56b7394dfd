//! V2: the symbolic equivalence checker as an experiment — zero
//! equivalence rejections on a clean differential corpus, 100% detection
//! of the regalloc-shaped miscompile kinds, and the E2 instruction-count
//! ladder that `regalloc_aggressive` buys once the proof gates it.
//!
//! Rendered as greppable lines so `tables --exp v2` doubles as the
//! equivalence gate in `scripts/check.sh`:
//!
//! 1. **clean** — every corpus variant (ints, doubles, division, a
//!    pass-less spill-everything shape, and the §V stencil apply) is
//!    checked under every pass configuration that matters; any
//!    `Rule::Equivalence` error is a soundness false positive;
//! 2. **miscompiles** — the four regalloc-shaped corruption kinds from
//!    `brew_verify::mutate` seeded into every corpus variant must be
//!    rejected *by the equivalence rule* (the structural rules are blind
//!    to them by construction);
//! 3. **ladder** — static instruction counts of the specialized stencil
//!    apply along the A2 pass ladder, which must be monotone
//!    non-increasing and land at or under the aggressive-coalescing gate.

use brew_core::{PassConfig, RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_stencil::Stencil;
use brew_verify::{mutate, verify, Rule, Severity, VerifyOptions};

/// Static instruction-count gate for the aggressive E2 emission
/// (EXPERIMENTS.md V2; the seed emission was 31).
pub const E2_AGGRESSIVE_GATE: usize = 24;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int diffsq(int a, int b) { int d = a - b; return d * d; }
    double fdiff(double a, double b, double c) { return (a - b) / c; }
    int modsum(int a, int b, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += (a * i + b) / (i + 1);
        return s;
    }
"#;

/// One equivalence-checked corpus variant.
#[derive(Debug, Clone)]
pub struct EquivRow {
    /// Corpus label (function + pass configuration).
    pub label: String,
    /// `Rule::Equivalence` error findings — any non-zero entry is a
    /// false positive of the prover.
    pub equiv_errors: usize,
    /// Total error findings of all rules (the corpus must be clean).
    pub errors: usize,
}

/// Per-miscompile-kind detection tally (equivalence rule only).
#[derive(Debug, Clone)]
pub struct MiscompileRow {
    /// Mutation kind (kebab-case name).
    pub kind: &'static str,
    /// Sites found across the corpus.
    pub applied: usize,
    /// Mutants rejected with a `Rule::Equivalence` error.
    pub detected: usize,
}

/// Everything `equiv_study` measured.
#[derive(Debug, Clone)]
pub struct EquivV2Report {
    /// Clean-corpus section (prover false positives show up here).
    pub clean: Vec<EquivRow>,
    /// Seeded regalloc-shaped miscompiles.
    pub kinds: Vec<MiscompileRow>,
    /// Static instruction counts of the stencil apply along the pass
    /// ladder: (label, instructions, bytes).
    pub ladder: Vec<(String, usize, usize)>,
    /// Instructions of the aggressive emission (the gated number).
    pub aggressive_insts: usize,
}

impl EquivV2Report {
    /// `true` when the ladder never increases from row to row.
    pub fn ladder_monotone(&self) -> bool {
        self.ladder.windows(2).all(|w| w[1].1 <= w[0].1)
    }
}

fn corpus(img: &Image) -> Vec<(String, u64, SpecRequest)> {
    let prog = brew_minic::compile_into(PROG, img).unwrap();
    let f = |n: &str| prog.func(n).unwrap();
    let int2 = |a: &str| {
        (
            a.to_string(),
            f(a),
            SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .ret(RetKind::Int),
        )
    };
    vec![
        (
            "poly n=6".into(),
            f("poly"),
            SpecRequest::new()
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int),
        ),
        int2("diffsq"),
        (
            "fdiff c=3.0".into(),
            f("fdiff"),
            SpecRequest::new()
                .unknown_f64()
                .unknown_f64()
                .known_f64(3.0)
                .ret(RetKind::F64),
        ),
        (
            "modsum n=5".into(),
            f("modsum"),
            SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .known_int(5)
                .ret(RetKind::Int),
        ),
    ]
}

/// Pass configurations each corpus function is proved under: the full
/// pipeline, the aggressive coalescer the proof unlocks, and the
/// pass-less shape whose frame traffic stresses the spill-vs-promote
/// join.
fn pass_points() -> Vec<(&'static str, PassConfig)> {
    vec![
        ("all", PassConfig::default()),
        (
            "aggr",
            PassConfig {
                regalloc_aggressive: true,
                ..PassConfig::default()
            },
        ),
        ("none", PassConfig::none()),
    ]
}

fn equiv_errors(report: &brew_verify::VerifyReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Equivalence && f.severity == Severity::Error)
        .count()
}

/// The V2 experiment.
pub fn equiv_study() -> EquivV2Report {
    let img = Image::new();
    let opts = VerifyOptions::default();

    // --- section 1: the clean corpus, every function × pass point ---
    let mut clean = Vec::new();
    let mut variants: Vec<(u64, SpecRequest, RewriteResult)> = Vec::new();
    for (label, func, req) in corpus(&img) {
        for (pname, pc) in pass_points() {
            let req = req.clone().passes(pc);
            let res = Rewriter::new(&img)
                .rewrite(func, &req)
                .expect("corpus rewrite");
            let report = verify(&img, func, &req, &res, &opts);
            clean.push(EquivRow {
                label: format!("{label} [{pname}]"),
                equiv_errors: equiv_errors(&report),
                errors: report.error_count(),
            });
            variants.push((func, req, res));
        }
    }
    // The §V workload rides along, aggressive included.
    {
        let mut st = Stencil::new(crate::XS, crate::YS);
        let apply = st.prog.func("apply").unwrap();
        for (pname, pc) in [
            ("all", PassConfig::default()),
            (
                "aggr",
                PassConfig {
                    regalloc_aggressive: true,
                    ..PassConfig::default()
                },
            ),
        ] {
            let req = st.apply_request().passes(pc);
            let res = st.specialize_apply_with_passes(&pc).expect("stencil apply");
            let report = verify(&st.img, apply, &req, &res, &opts);
            clean.push(EquivRow {
                label: format!("stencil apply [{pname}]"),
                equiv_errors: equiv_errors(&report),
                errors: report.error_count(),
            });
        }
    }

    // --- section 2: the regalloc-shaped miscompiles ---
    let new_kinds = [
        mutate::Mutation::WrongRegSub,
        mutate::Mutation::ClobberCalleeSaved,
        mutate::Mutation::DroppedSpillStore,
        mutate::Mutation::CommutedNonCommutative,
    ];
    let mut kinds: Vec<MiscompileRow> = new_kinds
        .iter()
        .map(|k| MiscompileRow {
            kind: k.name(),
            applied: 0,
            detected: 0,
        })
        .collect();
    for (func, req, res) in &variants {
        for (ki, kind) in new_kinds.into_iter().enumerate() {
            let Some(m) = mutate::apply(&img, res, kind) else {
                continue;
            };
            kinds[ki].applied += 1;
            let report = verify(&img, *func, req, res, &opts);
            if equiv_errors(&report) > 0 {
                kinds[ki].detected += 1;
            }
            m.revert(&img);
        }
    }

    // --- section 3: the E2 static instruction ladder ---
    let mut ladder = Vec::new();
    for (label, pc) in crate::a2_ladder() {
        let mut s = Stencil::new(crate::XS, crate::YS);
        let res = s.specialize_apply_with_passes(&pc).expect("ladder rewrite");
        let insts = brew_core::disasm_result(&s.img, &res).len();
        ladder.push((label.to_string(), insts, res.code_len));
    }
    // The last rung is the proof-gated aggressive coalescing.
    let aggressive_insts = ladder.last().map_or(0, |r| r.1);

    EquivV2Report {
        clean,
        kinds,
        ladder,
        aggressive_insts,
    }
}

/// Render the V2 report.
pub fn render_equiv(title: &str, r: &EquivV2Report) -> String {
    let mut s = format!("## {title}\n\n");
    let fps: usize = r.clean.iter().map(|c| c.equiv_errors).sum();
    let errs: usize = r.clean.iter().map(|c| c.errors).sum();
    s.push_str(&format!(
        "clean corpus              : {} variants, {} equivalence rejections, {} total errors\n",
        r.clean.len(),
        fps,
        errs
    ));
    for c in &r.clean {
        s.push_str(&format!(
            "  {:<23} : {}\n",
            c.label,
            if c.errors == 0 { "proved" } else { "REJECTED" }
        ));
    }
    let applied: usize = r.kinds.iter().map(|k| k.applied).sum();
    let detected: usize = r.kinds.iter().map(|k| k.detected).sum();
    let kinds_full = r
        .kinds
        .iter()
        .filter(|k| k.applied > 0 && k.detected == k.applied)
        .count();
    s.push_str(&format!(
        "miscompile kinds          : {kinds_full}/{} fully detected ({detected}/{applied} mutants, equivalence rule)\n",
        r.kinds.len()
    ));
    for k in &r.kinds {
        s.push_str(&format!(
            "  {:<23} : {}/{}\n",
            k.kind, k.detected, k.applied
        ));
    }
    s.push_str("E2 instruction ladder     :\n");
    for (label, insts, bytes) in &r.ladder {
        s.push_str(&format!(
            "  {label:<37} : {insts:>3} insts, {bytes:>4} bytes\n"
        ));
    }
    s.push_str(&format!(
        "ladder monotone           : {}\n",
        if r.ladder_monotone() { "yes" } else { "NO" }
    ));
    s.push_str(&format!(
        "aggressive E2             : {} instructions (gate <= {})\n",
        r.aggressive_insts, E2_AGGRESSIVE_GATE
    ));
    s
}
