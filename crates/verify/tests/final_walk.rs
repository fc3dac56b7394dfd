//! The equivalence rule compares each block's events from the block's
//! *final* fixpoint walk — the one from its stable entry state after every
//! back-edge join — not from an earlier walk.
//!
//! The variant is a loop kept in the code (`max_variants = 1` closes it
//! after one peeled iteration). When the loop body is first walked, from
//! the edge that enters the loop, the slots of `s` and `i` both hold the
//! constant 1. The mutant makes the body read `i` where it should read `s`.
//! From that first entry state the mutant computes the same terms as the
//! original, and so does every block walked from it. Only after the
//! back-edge join gives `s` and `i` separate phi values does the
//! divergence show, so a comparison built from first walks would accept
//! the mutant.

use brew_core::{PassConfig, RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{verify, Rule, Severity, VerifyOptions, VerifyReport};
use brew_x86::{decode, encode, Gpr, Inst, Operand};

const PROG: &str = r#"
    int powsum(int x, int n) {
        int r = 1;
        int s = 0;
        for (int i = 0; i < n; i++) { s += r; r *= x; }
        return s;
    }
"#;

fn loop_variant(img: &Image) -> (u64, SpecRequest, RewriteResult) {
    let prog = brew_minic::compile_into(PROG, img).unwrap();
    let func = prog.func("powsum").unwrap();
    // No passes: every variable lives in its own frame slot, so the
    // mutant is a one-displacement change of a load.
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .ret(RetKind::Int)
        .func(func, |o| o.max_variants = 1)
        .passes(PassConfig::none());
    let res = Rewriter::new(img).rewrite(func, &req).unwrap();
    (func, req, res)
}

fn decode_variant(img: &Image, res: &RewriteResult) -> Vec<(u64, Inst, usize)> {
    let bytes = img.code_window(res.entry, res.code_len).unwrap();
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let addr = res.entry + off as u64;
        let d = decode(&bytes[off..], addr).unwrap();
        out.push((addr, d.inst, d.len));
        off += d.len;
    }
    out
}

/// A `mov rax, [rsp+disp]` frame load: its displacement.
fn rax_frame_load(inst: &Inst) -> Option<i32> {
    match inst {
        Inst::Mov {
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(m),
            ..
        } if m.base == Some(Gpr::Rsp) && m.index.is_none() => Some(m.disp),
        _ => None,
    }
}

/// Retarget the loop body's load of `s` onto the slot of `i`, keeping the
/// instruction length.
fn read_i_for_s(img: &Image, res: &RewriteResult) {
    let insts = decode_variant(img, res);
    let (back_edge, head) = insts
        .iter()
        .find_map(|&(addr, inst, _)| match inst {
            Inst::Jcc { target, .. } if target < addr => Some((addr, target)),
            _ => None,
        })
        .expect("the variant keeps its loop");
    // `s += r` loads s into rax first; the loop's last load into rax is
    // the latch's load of i for `i < n`.
    let body: Vec<_> = insts
        .iter()
        .filter(|&&(addr, inst, _)| {
            addr >= head && addr < back_edge && rax_frame_load(&inst).is_some()
        })
        .collect();
    assert!(body.len() >= 2, "loop body has no frame loads to swap");
    let &(s_addr, s_load, s_len) = body[0];
    let i_disp = rax_frame_load(&body[body.len() - 1].1).unwrap();
    assert_ne!(
        rax_frame_load(&s_load),
        Some(i_disp),
        "s and i share a slot"
    );
    let mutated = match s_load {
        Inst::Mov {
            w,
            dst,
            src: Operand::Mem(mut m),
        } => {
            m.disp = i_disp;
            Inst::Mov {
                w,
                dst,
                src: Operand::Mem(m),
            }
        }
        _ => unreachable!(),
    };
    let mut bytes = Vec::new();
    let len = encode(&mutated, s_addr, &mut bytes).unwrap();
    assert_eq!(len, s_len, "mutant must keep the instruction length");
    img.write_bytes(s_addr, &bytes).unwrap();
}

fn equivalence_errors(report: &VerifyReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Equivalence && f.severity == Severity::Error)
        .count()
}

#[test]
fn clean_loop_variant_is_proved() {
    let img = Image::new();
    let (func, req, res) = loop_variant(&img);
    let report = verify(&img, func, &req, &res, &VerifyOptions::default());
    assert!(
        report.passed(),
        "clean loop variant rejected:\n{}",
        brew_verify::render_report(&img, &res, &report).join("\n")
    );
}

#[test]
fn loop_mutant_visible_only_after_the_back_edge_is_rejected() {
    let img = Image::new();
    let (func, req, res) = loop_variant(&img);
    read_i_for_s(&img, &res);
    let report = verify(&img, func, &req, &res, &VerifyOptions::default());
    assert!(
        equivalence_errors(&report) > 0,
        "mutant escaped the equivalence rule:\n{}",
        brew_verify::render_report(&img, &res, &report).join("\n")
    );
    // The structural rules are blind to it: a frame load from a live slot.
    assert_eq!(
        report.error_count(),
        equivalence_errors(&report),
        "only the equivalence rule should see this mutant"
    );
}
