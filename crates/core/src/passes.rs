//! Optimization passes over captured blocks (§III.G: "we run optimization
//! passes over the newly generated, captured blocks").
//!
//! The paper's prototype had none and still beat the generic code by >2×;
//! these passes close part of the remaining gap to the manual version and
//! are individually switchable for the A2 ablation experiment.

use crate::capture::{CapturedBlock, CapturedInst};
use brew_x86::prelude::*;
use std::collections::HashSet;

/// Which passes run after tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Remove stores to frame slots that no emitted instruction reads.
    pub dead_store_elim: bool,
    /// Forward stored/loaded values to later loads within a block.
    pub redundant_load_elim: bool,
    /// Remove no-op moves and lea identities.
    pub peephole: bool,
    /// Remove dead push/pop pairs from inlined frames (§VIII "improved
    /// inlining of small functions and deep call chains").
    pub frame_compression: bool,
    /// Post-rewrite register allocation: CFG-aware slot promotion plus
    /// liveness-driven copy coalescing and address folding (paper §IV
    /// "register renaming").
    pub regalloc: bool,
    /// Aggressive register allocation: narrow the conservative `ABI_RET`
    /// live-out contract to exactly the declared return class plus
    /// callee-saved registers, unlocking coalescing of per-point XMM
    /// temporaries and address-chain registers. Only publishable when the
    /// translation-validation proof in `brew-verify` passes; the manager
    /// falls back to the conservative allocation on proof failure.
    pub regalloc_aggressive: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            dead_store_elim: true,
            redundant_load_elim: true,
            peephole: true,
            frame_compression: true,
            regalloc: true,
            regalloc_aggressive: false,
        }
    }
}

impl PassConfig {
    /// Disable everything (paper-prototype fidelity mode).
    pub fn none() -> Self {
        PassConfig {
            dead_store_elim: false,
            redundant_load_elim: false,
            peephole: false,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        }
    }

    /// The passes as a bit mask, one bit per field in declaration order:
    /// the form request fingerprints and checkpoints (format 2) carry.
    pub(crate) fn mask(&self) -> u8 {
        (self.dead_store_elim as u8)
            | (self.redundant_load_elim as u8) << 1
            | (self.peephole as u8) << 2
            | (self.frame_compression as u8) << 3
            | (self.regalloc as u8) << 4
            | (self.regalloc_aggressive as u8) << 5
    }

    /// Inverse of [`PassConfig::mask`]; `None` when a bit names no pass.
    pub(crate) fn from_mask(mask: u8) -> Option<Self> {
        (mask < 1 << 6).then_some(PassConfig {
            dead_store_elim: mask & 1 != 0,
            redundant_load_elim: mask & 1 << 1 != 0,
            peephole: mask & 1 << 2 != 0,
            frame_compression: mask & 1 << 3 != 0,
            regalloc: mask & 1 << 4 != 0,
            regalloc_aggressive: mask & 1 << 5 != 0,
        })
    }
}

/// Run the configured passes; returns the number of removed instructions.
///
/// `frame_escaped` disables frame dead-store elimination (an escaped frame
/// address means unknown loads may legally alias the frame).
pub fn run_passes(
    blocks: &mut [CapturedBlock],
    pc: &PassConfig,
    frame_escaped: bool,
    ret: crate::config::RetKind,
) -> u64 {
    run_passes_traced(blocks, pc, frame_escaped, ret, None)
}

/// [`run_passes`] with optional span recording: each enabled pass gets a
/// `cat:"pass"` span carrying its removal count.
pub fn run_passes_traced(
    blocks: &mut [CapturedBlock],
    pc: &PassConfig,
    frame_escaped: bool,
    ret: crate::config::RetKind,
    mut rec: Option<&mut crate::telemetry::SpanRecorder>,
) -> u64 {
    let mut removed = 0;
    let staged = |rec: &mut Option<&mut crate::telemetry::SpanRecorder>,
                  name: &'static str,
                  f: &mut dyn FnMut() -> u64|
     -> u64 {
        let t0 = rec.as_ref().map(|r| r.now_ns());
        let n = f();
        if let (Some(r), Some(t0)) = (rec.as_deref_mut(), t0) {
            r.complete(name, "pass", t0, vec![("removed".into(), n.to_string())]);
        }
        n
    };
    if pc.redundant_load_elim {
        removed += staged(&mut rec, "redundant-load-elim", &mut || {
            blocks.iter_mut().map(forward_loads).sum()
        });
    }
    if pc.dead_store_elim && !frame_escaped {
        removed += staged(&mut rec, "dead-store-elim", &mut || {
            dead_frame_stores(blocks)
        });
    }
    if pc.peephole {
        // First peephole round: cancel adjacent stack-temp pairs so frame
        // compression sees the minimal push population.
        removed += staged(&mut rec, "peephole", &mut || {
            blocks.iter_mut().map(peephole).sum()
        });
    }
    if pc.frame_compression {
        removed += staged(&mut rec, "frame-compression", &mut || {
            crate::frame::compress_frames(blocks)
        });
    }
    if pc.regalloc {
        // Register allocation proper: promote surviving slots across the
        // CFG, then coalesce the copy chains promotion leaves behind.
        removed += staged(&mut rec, "regalloc", &mut || {
            crate::regalloc::allocate(blocks, frame_escaped, ret, pc.regalloc_aggressive)
        });
    }
    if pc.peephole {
        // Second round: merge the RSP bumps frame compression introduced
        // and drop register writes orphaned by removed consumers.
        removed += staged(&mut rec, "peephole-2", &mut || {
            blocks
                .iter_mut()
                .map(|b| peephole(b) + dead_reg_writes(b) + peephole(b))
                .sum()
        });
    }
    removed
}

/// Backward dead-write elimination for flag-neutral, side-effect-free
/// register moves: a `lea`/`mov`/`movabs` whose destination is overwritten
/// before any read (within the block) does nothing. Registers are assumed
/// live-out at the block boundary, and calls/indirect jumps read
/// everything, so this never crosses an ABI or control edge.
/// Does the instruction overwrite its destination register(s) completely?
/// (32-bit GPR writes zero-extend and count; 8-bit and scalar-SSE writes
/// merge and do not.)
fn fully_defines(inst: &Inst) -> bool {
    match inst {
        Inst::Mov {
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(_),
            ..
        }
        | Inst::MovAbs { .. }
        | Inst::Movsxd { .. }
        | Inst::Movzx8 { .. }
        | Inst::Lea { .. }
        | Inst::Imul { .. }
        | Inst::ImulImm { .. }
        | Inst::Cvttsd2si { .. }
        | Inst::Pop {
            dst: Operand::Reg(_),
        }
        | Inst::MovUpd {
            dst: Operand::Xmm(_),
            ..
        } => true,
        // movsd xmm <- mem zeroes the high lane: a full definition.
        Inst::MovSd {
            dst: Operand::Xmm(_),
            src: Operand::Mem(_),
        } => true,
        Inst::Alu {
            op,
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(_),
            ..
        } => op.writes_dst(),
        _ => false,
    }
}

fn dead_reg_writes(b: &mut CapturedBlock) -> u64 {
    use defuse::Loc;
    let mut live_gpr = [true; 16];
    let mut live_xmm = [true; 16];
    let mut keep = vec![true; b.insts.len()];
    for (idx, ci) in b.insts.iter().enumerate().rev() {
        let inst = &ci.inst;
        if defuse::is_barrier(inst) {
            live_gpr = [true; 16];
            live_xmm = [true; 16];
            continue;
        }
        // Candidate: flag-neutral pure register producer.
        let removable_shape = matches!(
            inst,
            Inst::Mov {
                dst: Operand::Reg(_),
                src: Operand::Reg(_) | Operand::Imm(_),
                ..
            } | Inst::MovAbs { .. }
                | Inst::Lea { .. }
                | Inst::MovSd {
                    dst: Operand::Xmm(_),
                    src: Operand::Xmm(_)
                }
                | Inst::MovUpd {
                    dst: Operand::Xmm(_),
                    src: Operand::Xmm(_)
                }
        ) && !matches!(inst, Inst::Lea { dst: Gpr::Rsp, .. });
        if removable_shape {
            let mut all_dead = true;
            let mut any_write = false;
            defuse::for_each_write(inst, &mut |l| {
                any_write = true;
                match l {
                    Loc::Gpr(g) => all_dead &= !live_gpr[g.number() as usize],
                    Loc::Xmm(x) => all_dead &= !live_xmm[x.number() as usize],
                }
            });
            if any_write && all_dead {
                keep[idx] = false;
                continue; // removed: no liveness effect
            }
        }
        // Only *full* definitions kill liveness: byte moves, setcc and
        // scalar SSE writes leave the rest of the register intact, so an
        // earlier producer is still (partially) read through them.
        if fully_defines(inst) {
            defuse::for_each_write(inst, &mut |l| match l {
                Loc::Gpr(g) => live_gpr[g.number() as usize] = false,
                Loc::Xmm(x) => live_xmm[x.number() as usize] = false,
            });
        }
        defuse::for_each_read(inst, &mut |l| match l {
            Loc::Gpr(g) => live_gpr[g.number() as usize] = true,
            Loc::Xmm(x) => live_xmm[x.number() as usize] = true,
        });
    }
    let before = b.insts.len();
    let mut it = keep.iter();
    b.insts.retain(|_| *it.next().unwrap());
    (before - b.insts.len()) as u64
}

/// Global frame dead-store elimination: a plain store (`mov`/`movsd` to a
/// tracked frame slot) is dead when no emitted instruction anywhere loads
/// that slot. Pushes and read-modify-writes are kept (they have additional
/// effects). Sound because the frame is dead after return and, with no
/// escaped frame address, no untracked access can alias it.
fn dead_frame_stores(blocks: &mut [CapturedBlock]) -> u64 {
    let mut loaded: HashSet<i64> = HashSet::new();
    for b in blocks.iter() {
        for ci in &b.insts {
            if let Some(off) = ci.frame_load {
                loaded.insert(off);
                // Packed (16-byte) accesses touch the next slot too.
                let packed = matches!(ci.inst, Inst::MovUpd { .. })
                    || matches!(ci.inst, Inst::Sse { op, .. } if op.is_packed());
                if packed {
                    loaded.insert(off + 8);
                }
            }
        }
    }
    let mut removed = 0;
    for b in blocks.iter_mut() {
        b.insts.retain(|ci| {
            let Some(off) = ci.frame_store else {
                return true;
            };
            let pure_store = matches!(
                ci.inst,
                Inst::Mov {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::MovSd {
                    dst: Operand::Mem(_),
                    ..
                }
            );
            let dead = pure_store && !loaded.contains(&off);
            if dead {
                removed += 1;
            }
            !dead
        });
    }
    removed
}

/// Intra-block store-to-load forwarding and redundant-load elimination for
/// 8-byte GPR/XMM moves with `rsp`-relative or absolute addresses.
fn forward_loads(b: &mut CapturedBlock) -> u64 {
    #[derive(Clone, Copy, PartialEq)]
    enum Home {
        Gpr(Gpr),
        Xmm(Xmm),
    }
    // Available equivalences: memory operand -> register holding the value.
    let mut avail: Vec<(MemRef, Home)> = Vec::new();
    let mut removed = 0;

    fn trackable(m: &MemRef) -> bool {
        // rsp-based (frame) or absolute; anything else may change meaning.
        (m.base == Some(Gpr::Rsp) && m.index.is_none()) || (m.base.is_none() && m.index.is_none())
    }

    let mut out: Vec<CapturedInst> = Vec::with_capacity(b.insts.len());
    for mut ci in b.insts.drain(..) {
        // Kill facts invalidated by this instruction.
        let kills_all =
            defuse::is_barrier(&ci.inst) || matches!(ci.inst, Inst::Push { .. } | Inst::Pop { .. });
        let mut writes_rsp = false;
        defuse::for_each_write(&ci.inst, &mut |l| {
            if l == defuse::Loc::Gpr(Gpr::Rsp) {
                writes_rsp = true;
            }
        });

        match &ci.inst {
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(d),
                src: Operand::Mem(m),
            } if trackable(m) => {
                if let Some((_, home)) = avail.iter().find(|(am, _)| am == m) {
                    match home {
                        Home::Gpr(r) if r == d => {
                            removed += 1; // value already in place
                            continue;
                        }
                        Home::Gpr(r) => {
                            ci = CapturedInst {
                                inst: Inst::Mov {
                                    w: Width::W64,
                                    dst: Operand::Reg(*d),
                                    src: Operand::Reg(*r),
                                },
                                frame_store: None,
                                frame_load: None,
                            };
                        }
                        Home::Xmm(_) => {} // cross-file move: leave as load
                    }
                }
            }
            Inst::MovSd {
                dst: Operand::Xmm(d),
                src: Operand::Mem(m),
            } if trackable(m) => {
                if let Some((_, Home::Xmm(x))) = avail.iter().find(|(am, _)| am == m) {
                    if x == d {
                        removed += 1;
                        continue;
                    }
                    ci = CapturedInst {
                        inst: Inst::MovSd {
                            dst: Operand::Xmm(*d),
                            src: Operand::Xmm(*x),
                        },
                        frame_store: None,
                        frame_load: None,
                    };
                }
            }
            _ => {}
        }

        // Update the fact set with this (possibly replaced) instruction.
        if kills_all {
            avail.clear();
        } else {
            // A store invalidates overlapping facts, then adds one.
            if let Some(sm) = ci.inst.mem_store() {
                avail.retain(|(am, _)| !may_overlap(am, &sm));
            }
            if writes_rsp {
                avail.retain(|(am, _)| am.base != Some(Gpr::Rsp));
            }
            // Register redefinition invalidates facts homed there.
            defuse::for_each_write(&ci.inst, &mut |l| match l {
                defuse::Loc::Gpr(g) => avail.retain(|(_, h)| *h != Home::Gpr(g)),
                defuse::Loc::Xmm(x) => avail.retain(|(_, h)| *h != Home::Xmm(x)),
            });
            match &ci.inst {
                Inst::Mov {
                    w: Width::W64,
                    dst: Operand::Mem(m),
                    src: Operand::Reg(s),
                } if trackable(m) => {
                    avail.push((*m, Home::Gpr(*s)));
                }
                Inst::Mov {
                    w: Width::W64,
                    dst: Operand::Reg(d),
                    src: Operand::Mem(m),
                } if trackable(m) => {
                    avail.push((*m, Home::Gpr(*d)));
                }
                Inst::MovSd {
                    dst: Operand::Mem(m),
                    src: Operand::Xmm(s),
                } if trackable(m) => {
                    avail.push((*m, Home::Xmm(*s)));
                }
                Inst::MovSd {
                    dst: Operand::Xmm(d),
                    src: Operand::Mem(m),
                } if trackable(m) => {
                    avail.push((*m, Home::Xmm(*d)));
                }
                _ => {}
            }
        }
        out.push(ci);
    }
    b.insts = out;
    removed
}

fn may_overlap(a: &MemRef, b: &MemRef) -> bool {
    match (a.base, b.base) {
        (Some(Gpr::Rsp), Some(Gpr::Rsp)) => (a.disp - b.disp).abs() < 16,
        (None, None) => (a.disp - b.disp).abs() < 16,
        // Absolute (global/pool) vs rsp (frame) cannot alias; pools and
        // frame are disjoint regions.
        (Some(Gpr::Rsp), None) | (None, Some(Gpr::Rsp)) => false,
        _ => true,
    }
}

/// Remove no-op instructions and cancel dead stack-temp pairs left behind
/// by constant folding (`push X; lea rsp,[rsp+8]`, `push X; pop Y`, ...).
/// Runs to a fixpoint so cancellations cascade.
fn peephole(b: &mut CapturedBlock) -> u64 {
    let before = b.insts.len();
    loop {
        let n = b.insts.len();
        peephole_singletons(b);
        peephole_pairs(b);
        if b.insts.len() == n {
            break;
        }
    }
    (before - b.insts.len()) as u64
}

fn peephole_singletons(b: &mut CapturedBlock) {
    b.insts.retain(|ci| {
        !matches!(
            ci.inst,
            Inst::Mov { w: Width::W64, dst: Operand::Reg(a), src: Operand::Reg(c) } if a == c
        ) && !matches!(
            ci.inst,
            Inst::MovSd { dst: Operand::Xmm(a), src: Operand::Xmm(c) } if a == c
        ) && !matches!(
            ci.inst,
            Inst::Lea { dst, src: MemRef { base: Some(bb), index: None, disp: 0 } } if dst == bb
        ) && !matches!(ci.inst, Inst::Nop)
    });
}

/// `lea rsp, [rsp+8]` — the elided-pop stack adjustment.
fn is_rsp_bump8(i: &Inst) -> bool {
    matches!(
        i,
        Inst::Lea {
            dst: Gpr::Rsp,
            src: MemRef {
                base: Some(Gpr::Rsp),
                index: None,
                disp: 8
            }
        }
    )
}

fn peephole_pairs(b: &mut CapturedBlock) {
    let mut out: Vec<CapturedInst> = Vec::with_capacity(b.insts.len());
    let mut i = 0;
    while i < b.insts.len() {
        if i + 1 < b.insts.len() {
            let (a, c) = (&b.insts[i].inst, &b.insts[i + 1].inst);
            // push X ; lea rsp,[rsp+8]  →  nothing (slot is below RSP and
            // dead afterwards; neither instruction touches flags).
            if matches!(
                a,
                Inst::Push {
                    src: Operand::Reg(_) | Operand::Imm(_)
                }
            ) && is_rsp_bump8(c)
            {
                i += 2;
                continue;
            }
            // push X ; pop Y  →  mov Y, X (or nothing when X == Y).
            if let (
                Inst::Push { src },
                Inst::Pop {
                    dst: Operand::Reg(d),
                },
            ) = (a, c)
            {
                match src {
                    Operand::Reg(s) if s == d => {
                        i += 2;
                        continue;
                    }
                    Operand::Reg(s) => {
                        out.push(CapturedInst::plain(Inst::Mov {
                            w: Width::W64,
                            dst: Operand::Reg(*d),
                            src: Operand::Reg(*s),
                        }));
                        i += 2;
                        continue;
                    }
                    Operand::Imm(v) => {
                        out.push(CapturedInst::plain(Inst::Mov {
                            w: Width::W64,
                            dst: Operand::Reg(*d),
                            src: Operand::Imm(*v),
                        }));
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // lea rsp,[rsp+a] ; lea rsp,[rsp+b]  →  one combined bump.
            if let (
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src:
                        MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp: d1,
                        },
                },
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src:
                        MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp: d2,
                        },
                },
            ) = (a, c)
            {
                if let Some(d) = d1.checked_add(*d2) {
                    if d != 0 {
                        out.push(CapturedInst::plain(Inst::Lea {
                            dst: Gpr::Rsp,
                            src: MemRef::base_disp(Gpr::Rsp, d),
                        }));
                    }
                    i += 2;
                    continue;
                }
            }
        }
        out.push(b.insts[i]);
        i += 1;
    }
    b.insts = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Terminator;

    #[test]
    fn pass_mask_round_trips_and_rejects_unknown_bits() {
        for mask in 0..1u8 << 6 {
            assert_eq!(PassConfig::from_mask(mask).map(|p| p.mask()), Some(mask));
        }
        assert_eq!(PassConfig::default().mask(), 0b01_1111);
        assert_eq!(PassConfig::from_mask(1 << 6), None);
    }

    fn block(insts: Vec<CapturedInst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts;
        b.term = Terminator::Ret;
        b.traced = true;
        b
    }

    fn mov_store(off: i32, src: Gpr) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
                src: Operand::Reg(src),
            },
            frame_store: Some(off as i64),
            frame_load: None,
        }
    }

    fn mov_load(dst: Gpr, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            },
            frame_store: None,
            frame_load: Some(off as i64),
        }
    }

    #[test]
    fn dse_removes_unloaded_stores() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),  // never loaded -> dead
            mov_store(-16, Gpr::Rsi), // loaded below -> kept
            mov_load(Gpr::Rax, -16),
        ])];
        let removed = run_passes(
            &mut blocks,
            &PassConfig {
                redundant_load_elim: false,
                peephole: false,
                dead_store_elim: true,
                frame_compression: false,
                regalloc: false,
                regalloc_aggressive: false,
            },
            false,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 1);
        assert_eq!(blocks[0].insts.len(), 2);
    }

    #[test]
    fn dse_respects_escape() {
        let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi)])];
        let removed = run_passes(
            &mut blocks,
            &PassConfig::default(),
            true,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 0);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),
            mov_load(Gpr::Rax, -8), // becomes mov rax, rdi
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            peephole: false,
            redundant_load_elim: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert_eq!(
            blocks[0].insts[1].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi)
            }
        );
    }

    #[test]
    fn forwarding_invalidated_by_overlapping_store() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),
            mov_store(-8, Gpr::Rsi),
            mov_load(Gpr::Rax, -8),
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            peephole: false,
            redundant_load_elim: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert_eq!(
            blocks[0].insts[2].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rsi)
            }
        );
    }

    #[test]
    fn forwarding_invalidated_by_register_redefinition() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),
            CapturedInst::plain(Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(0),
            }),
            mov_load(Gpr::Rax, -8), // must stay a load
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            peephole: false,
            redundant_load_elim: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert!(matches!(
            blocks[0].insts[2].inst,
            Inst::Mov {
                src: Operand::Mem(_),
                ..
            }
        ));
    }

    #[test]
    fn redundant_second_load_removed() {
        let mut blocks = vec![block(vec![
            mov_load(Gpr::Rax, -8),
            mov_load(Gpr::Rax, -8), // exact repeat -> removed
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            peephole: false,
            redundant_load_elim: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        let removed = run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert_eq!(removed, 1);
        assert_eq!(blocks[0].insts.len(), 1);
    }

    #[test]
    fn peephole_noops() {
        let mut blocks = vec![block(vec![
            CapturedInst::plain(Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rax),
            }),
            CapturedInst::plain(Inst::Nop),
            CapturedInst::plain(Inst::Lea {
                dst: Gpr::Rbx,
                src: MemRef::base(Gpr::Rbx),
            }),
            CapturedInst::plain(Inst::Ret),
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            redundant_load_elim: false,
            peephole: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        let removed = run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert_eq!(removed, 3);
        assert_eq!(blocks[0].insts.len(), 1);
    }

    #[test]
    fn w32_mov_self_not_removed() {
        // mov eax, eax zero-extends: not a no-op.
        let mut blocks = vec![block(vec![CapturedInst::plain(Inst::Mov {
            w: Width::W32,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Reg(Gpr::Rax),
        })])];
        let removed = run_passes(
            &mut blocks,
            &PassConfig::default(),
            false,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 0);
    }

    #[test]
    fn call_kills_facts() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),
            CapturedInst::plain(Inst::CallRel { target: 0x400000 }),
            mov_load(Gpr::Rax, -8), // must stay: callee may have changed it
        ])];
        let pc = PassConfig {
            dead_store_elim: false,
            peephole: false,
            redundant_load_elim: true,
            frame_compression: false,
            regalloc: false,
            regalloc_aggressive: false,
        };
        run_passes(&mut blocks, &pc, false, crate::config::RetKind::Int);
        assert!(matches!(
            blocks[0].insts[2].inst,
            Inst::Mov {
                src: Operand::Mem(_),
                ..
            }
        ));
    }
}

#[cfg(test)]
mod dead_write_tests {
    use super::*;
    use crate::capture::Terminator;

    fn block(insts: Vec<Inst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        b
    }

    fn run_dw(insts: Vec<Inst>) -> Vec<Inst> {
        let mut b = block(insts);
        dead_reg_writes(&mut b);
        b.insts.iter().map(|ci| ci.inst).collect()
    }

    #[test]
    fn overwritten_lea_is_removed() {
        let out = run_dw(vec![
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::base_disp(Gpr::Rsp, 16),
            },
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::base_disp(Gpr::Rsp, 32),
            },
            Inst::Ret,
        ]);
        assert_eq!(out.len(), 2, "first lea is dead");
        assert!(matches!(
            out[0],
            Inst::Lea {
                src: MemRef { disp: 32, .. },
                ..
            }
        ));
    }

    #[test]
    fn live_out_registers_are_kept() {
        // No redefinition before block end: assume live-out.
        let out = run_dw(vec![
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::base_disp(Gpr::Rsp, 16),
            },
            Inst::Ret,
        ]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn partial_write_does_not_kill_producer() {
        // mov rax, 5 ; mov al, 1 ; use rax — the full write is NOT dead.
        let out = run_dw(vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(5),
            },
            Inst::Mov {
                w: Width::W8,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base(Gpr::Rdi)),
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Ret,
        ]);
        assert_eq!(out.len(), 4, "nothing removable");
    }

    #[test]
    fn scalar_sse_write_does_not_kill_producer() {
        // movupd xmm1 <- [mem]; movsd xmm1 <- xmm0; movupd [mem] <- xmm1:
        // the first load still provides lane 1.
        let m = MemRef::abs(0x601000);
        let out = run_dw(vec![
            Inst::MovUpd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Mem(m),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::MovUpd {
                dst: Operand::Mem(m),
                src: Operand::Xmm(Xmm::Xmm1),
            },
            Inst::Ret,
        ]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn calls_make_everything_live() {
        let out = run_dw(vec![
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::base_disp(Gpr::Rsp, 16),
            },
            Inst::CallRel { target: 0x40_0000 },
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::base_disp(Gpr::Rsp, 32),
            },
            Inst::Ret,
        ]);
        assert_eq!(out.len(), 4, "the callee may observe rbp");
    }
}
