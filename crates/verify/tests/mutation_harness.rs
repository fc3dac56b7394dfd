//! Seeded-mutant detection: apply every applicable corruption from
//! `brew_verify::mutate` to a corpus of real variants and require that
//! the verifier rejects every single mutant — and accepts the variant
//! again once the corruption is reverted.

use brew_core::{RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{mutate, verify, VerifyOptions};
use std::collections::HashSet;

const PROG: &str = r#"
    int hits;
    void tick(int f) { hits += 1; }

    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int scale(int x, int k) { return x * k + k / 3; }
    int clamp(int x, int lo, int hi) {
        if (x < lo) return lo;
        if (x > hi) return hi;
        return x;
    }
    int sum(int* p, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += p[i];
        return s;
    }
    int dotk(int* xs, int* ys, int n) {
        tick(0);
        int d = 0;
        for (int i = 0; i < n; i++) d += xs[i] * ys[i];
        return d;
    }
    int spill(int x, int y) {
        int a = x * y + 3;
        tick(0);
        return a * x;
    }
"#;

struct Case {
    what: &'static str,
    func: u64,
    req: SpecRequest,
    res: RewriteResult,
}

fn corpus(img: &Image) -> Vec<Case> {
    let prog = brew_minic::compile_into(PROG, img).unwrap();
    let known = img.alloc_heap(6 * 8, 8);
    for i in 0..6 {
        img.write_u64(known + i * 8, 100 + i * 7).unwrap();
    }
    let mut cases = Vec::new();
    let mut add = |what: &'static str, name: &str, req: SpecRequest| {
        let func = prog.func(name).unwrap();
        let res = Rewriter::new(img).rewrite(func, &req).expect(what);
        cases.push(Case {
            what,
            func,
            req,
            res,
        });
    };
    add(
        "poly n=6",
        "poly",
        SpecRequest::new()
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int),
    );
    add(
        "scale k=123456789",
        "scale",
        SpecRequest::new()
            .unknown_int()
            .known_int(123_456_789)
            .ret(RetKind::Int),
    );
    // Unknown bounds keep the conditional branches in the variant.
    add(
        "clamp unknown bounds",
        "clamp",
        SpecRequest::new()
            .unknown_int()
            .unknown_int()
            .unknown_int()
            .ret(RetKind::Int),
    );
    // Kept hook calls: call/push/pop sites.
    add(
        "hooked sum",
        "sum",
        SpecRequest::new()
            .unknown_int()
            .known_int(4)
            .ret(RetKind::Int)
            .entry_hook(prog.func("tick").unwrap())
            .func(prog.func("tick").unwrap(), |o| o.inline = false),
    );
    // Inlined `tick` gives absolute global load/store sites; the
    // PTR_TO_KNOWN operand gives a non-empty folded read-set.
    add(
        "dotk known xs",
        "dotk",
        SpecRequest::new()
            .ptr_to_known(known, 6 * 8)
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int),
    );
    // A value live across a kept call: the allocator leaves its slot in
    // memory, so a spill store and its reload survive every pass.
    add(
        "spill across call",
        "spill",
        SpecRequest::new()
            .unknown_int()
            .unknown_int()
            .ret(RetKind::Int)
            .func(prog.func("tick").unwrap(), |o| o.inline = false),
    );
    cases
}

#[test]
fn every_seeded_mutant_is_detected() {
    let img = Image::new();
    let cases = corpus(&img);
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };
    let mut applied_kinds: HashSet<&'static str> = HashSet::new();
    let mut applied = 0usize;
    let mut detected = 0usize;
    for case in &cases {
        let clean = verify(&img, case.func, &case.req, &case.res, &opts);
        assert!(
            clean.passed(),
            "{}: clean variant must verify before mutation",
            case.what
        );
        for kind in mutate::Mutation::ALL {
            let Some(m) = mutate::apply(&img, &case.res, kind) else {
                continue;
            };
            applied += 1;
            applied_kinds.insert(kind.name());
            let report = verify(&img, case.func, &case.req, &case.res, &opts);
            if report.passed() {
                for line in brew_verify::render_report(&img, &case.res, &report) {
                    eprintln!("{line}");
                }
                panic!(
                    "{}: mutant `{}` escaped the verifier",
                    case.what,
                    kind.name()
                );
            }
            detected += 1;
            m.revert(&img);
            let again = verify(&img, case.func, &case.req, &case.res, &opts);
            assert!(
                again.passed(),
                "{}: reverting `{}` must restore a clean verdict",
                case.what,
                kind.name()
            );
        }
    }
    assert_eq!(applied, detected, "every applied mutant must be detected");
    assert!(
        applied_kinds.len() >= 12,
        "corpus must exercise at least 12 corruption kinds, got {}: {:?}",
        applied_kinds.len(),
        applied_kinds
    );
}

#[test]
fn corpus_exercises_every_mutation_kind() {
    let img = Image::new();
    let cases = corpus(&img);
    let mut kinds: HashSet<&'static str> = HashSet::new();
    for case in &cases {
        for kind in mutate::Mutation::ALL {
            if let Some(m) = mutate::apply(&img, &case.res, kind) {
                kinds.insert(kind.name());
                m.revert(&img);
            }
        }
    }
    let missing: Vec<_> = mutate::Mutation::ALL
        .iter()
        .filter(|k| !kinds.contains(k.name()))
        .collect();
    assert!(
        missing.is_empty(),
        "mutation kinds with no site in the corpus: {missing:?}"
    );
}
