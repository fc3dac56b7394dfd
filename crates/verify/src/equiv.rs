//! Symbolic translation validation: prove the optimized, emitted code
//! observationally equivalent to the pre-pass captured CFG.
//!
//! Both sides — the captured block list from [`brew_core::EquivCapture`] and
//! the freshly decoded emitted bytes — are executed over the same term-level
//! abstract machine ([`crate::term`]). Blocks are walked in lock step through
//! a joint fixpoint; at every block boundary the two machine states are
//! joined with shared phi atoms so that a value the passes merely *moved*
//! (renamed registers, forwarded loads, compressed frame slots) still interns
//! to the identical term id on both sides. Equivalence is then decided by
//! comparing the observable event streams (heap stores, call-boundary
//! register/stack state, the return-value / callee-saved contract, branch
//! polarity). Terms that fail to intern equal are *unproven*, never a
//! counterexample: the caller treats a rejection as "fall back to the
//! conservative emission", not "the pass is wrong".

use crate::term::{cond_flags, Atom, FlagSrc, FxBuild, Tag, TermId, Terms};
use crate::{cfg, Finding, Rule, Severity, VerifyReport};
use brew_core::capture::Terminator;
use brew_core::{EquivCapture, KnownSnapshot, RetKind, RewriteResult, SpecRequest};
use brew_image::Image;
use brew_x86::alu::{AluOp, UnOp};
use brew_x86::cond::Cond;
use brew_x86::inst::{Inst, ShiftCount, SseOp};
use brew_x86::operand::{MemRef, Operand};
use brew_x86::reg::{Gpr, Width};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Caller-saved integer registers (SysV): rax, rcx, rdx, rsi, rdi, r8-r11.
const CALLER_SAVED: [usize; 9] = [0, 1, 2, 6, 7, 8, 9, 10, 11];
/// Callee-saved integer registers (SysV): rbx, rbp, r12-r15.
const CALLEE_SAVED: [usize; 6] = [3, 5, 12, 13, 14, 15];
/// Integer argument registers in ABI order: rdi, rsi, rdx, rcx, r8, r9.
const SYSV_INT_ARGS: [usize; 6] = [7, 6, 2, 1, 8, 9];

/// Per-side abstract machine state at a program point.
#[derive(Clone, PartialEq)]
struct SideState {
    gpr: [TermId; 16],
    xmm_lo: [TermId; 16],
    xmm_hi: [TermId; 16],
    /// cf, zf, sf, of, pf.
    flags: [TermId; 5],
    /// The symbolic heap (everything that is not the tracked frame).
    mem: TermId,
    /// Frame epoch: changes when an escaped frame is havocked by a call.
    epoch: TermId,
    /// Byte-granular frame contents keyed by offset from entry rsp.
    frame: BTreeMap<i64, TermId>,
}

impl SideState {
    fn entry(terms: &mut Terms) -> SideState {
        let mut gpr = [TermId::default(); 16];
        let mut xmm_lo = [TermId::default(); 16];
        let mut xmm_hi = [TermId::default(); 16];
        for i in 0..16u8 {
            gpr[i as usize] = terms.atom(Atom::Gpr(i));
            xmm_lo[i as usize] = terms.atom(Atom::XmmLo(i));
            xmm_hi[i as usize] = terms.atom(Atom::XmmHi(i));
        }
        let mut flags = [TermId::default(); 5];
        for f in 0..5u8 {
            flags[f as usize] = terms.atom(Atom::Flag(f));
        }
        SideState {
            gpr,
            xmm_lo,
            xmm_hi,
            flags,
            mem: terms.atom(Atom::Mem),
            epoch: terms.atom(Atom::Frame),
            frame: BTreeMap::new(),
        }
    }

    fn frame_byte(&self, terms: &mut Terms, off: i64) -> TermId {
        if let Some(&t) = self.frame.get(&off) {
            return t;
        }
        let offc = terms.constant(off as u64);
        terms.op(Tag::FrameFresh, &[self.epoch, offc])
    }

    /// The frame bytes `off..off + len` packed into one value.
    fn frame_pack(&self, terms: &mut Terms, off: i64, len: u8) -> TermId {
        let mut bytes = [TermId::default(); 8];
        for (k, b) in bytes[..len as usize].iter_mut().enumerate() {
            *b = self.frame_byte(terms, off + k as i64);
        }
        terms.pack(&bytes[..len as usize])
    }
}

/// One observable effect. Two sides are equivalent iff their event streams
/// (per reachable block, from the joined entry state) are identical.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    /// A store outside the private frame.
    Store { len: u8, addr: TermId, val: TermId },
    /// A call boundary: everything the callee may observe.
    Call {
        target: u64,
        ind: Option<TermId>,
        rsp: TermId,
        args: [TermId; 6],
        fargs: [TermId; 8],
        frame: Option<Vec<(i64, TermId)>>,
    },
    /// Function exit: everything the caller may observe.
    Ret {
        val: Option<TermId>,
        saved: [TermId; 6],
        rsp: TermId,
        ret_slot: Option<TermId>,
        frame: Vec<(i64, TermId)>,
    },
    /// A conditional branch: normalized condition code + the flag terms read.
    Branch { cc: u8, flags: Vec<TermId> },
    /// A trapping instruction (ud2).
    Trap,
    /// Anything the walker cannot model; compared textually.
    Other(String),
}

/// Symbolic executor for one side of one block.
struct Walker<'w> {
    terms: &'w mut Terms,
    img: &'w Image,
    snap: &'w KnownSnapshot,
    rsp0: TermId,
    escaped: bool,
    ret_kind: RetKind,
    block: u32,
    calls: u16,
    st: SideState,
    events: Vec<Event>,
    halted: bool,
}

impl<'w> Walker<'w> {
    fn gpr(&self, r: Gpr) -> TermId {
        self.st.gpr[r as usize]
    }

    fn write_gpr(&mut self, r: Gpr, t: TermId) {
        if r == Gpr::Rsp {
            // Raising rsp abandons everything below the new top: those
            // bytes are dead on both sides regardless of what was stored.
            let old = self.terms.offset_of(self.st.gpr[r as usize], self.rsp0);
            let new = self.terms.offset_of(t, self.rsp0);
            if let (Some(o), Some(n)) = (old, new) {
                if n > o {
                    let dead: Vec<i64> = self.st.frame.range(o..n).map(|(k, _)| *k).collect();
                    for k in dead {
                        self.st.frame.remove(&k);
                    }
                }
            }
        }
        self.st.gpr[r as usize] = t;
    }

    fn addr_term(&mut self, m: &MemRef) -> TermId {
        let mut t = self.terms.constant(m.disp as i64 as u64);
        if let Some(b) = m.base {
            let bt = self.st.gpr[b as usize];
            t = self.terms.add64(t, bt);
        }
        if let Some((i, scale)) = m.index {
            let it = self.st.gpr[i as usize];
            let scaled = self.terms.mul_const(it, scale as i64);
            t = self.terms.add64(t, scaled);
        }
        t
    }

    fn load_t(&mut self, addr: TermId, len: u8) -> TermId {
        if let Some(off) = self.terms.offset_of(addr, self.rsp0) {
            return self.st.frame_pack(self.terms, off, len);
        }
        if let Some(a) = self.terms.as_const(addr) {
            let inside =
                self.snap.ranges().iter().any(|r| {
                    a >= r.start && a.checked_add(len as u64).is_some_and(|end| end <= r.end)
                });
            if inside {
                if let Ok(v) = self.img.read_uint(a, len as u64) {
                    return self.terms.constant(v);
                }
            }
        }
        self.terms.op(Tag::Select(len), &[self.st.mem, addr])
    }

    fn store_t(&mut self, addr: TermId, val: TermId, len: u8) {
        let canon = match len {
            1 => self.terms.byte(val, 0),
            4 => self.terms.low32(val),
            _ => val,
        };
        if let Some(off) = self.terms.offset_of(addr, self.rsp0) {
            for k in 0..len as i64 {
                let b = self.terms.byte(canon, k as u8);
                self.st.frame.insert(off + k, b);
            }
            return;
        }
        self.events.push(Event::Store {
            len,
            addr,
            val: canon,
        });
        self.st.mem = self.terms.op(Tag::Store(len), &[self.st.mem, addr, canon]);
    }

    fn load(&mut self, m: &MemRef, len: u8) -> TermId {
        let a = self.addr_term(m);
        self.load_t(a, len)
    }

    fn store(&mut self, m: &MemRef, val: TermId, len: u8) {
        let a = self.addr_term(m);
        self.store_t(a, val, len);
    }

    /// The full 64-bit term behind an integer operand, or `None` for xmm.
    fn int_value(&mut self, op: &Operand, w: Width) -> Option<TermId> {
        match op {
            Operand::Reg(r) => Some(self.gpr(*r)),
            Operand::Imm(i) => Some(self.terms.constant(*i as u64)),
            Operand::Mem(m) => {
                let m = *m;
                Some(self.load(&m, w.bytes() as u8))
            }
            Operand::Xmm(_) => None,
        }
    }

    fn write_gpr_w(&mut self, r: Gpr, w: Width, val: TermId) {
        let t = match w {
            Width::W64 => val,
            Width::W32 => self.terms.low32(val),
            Width::W8 => {
                let old = self.gpr(r);
                self.terms.op(Tag::InsertByte0, &[old, val])
            }
        };
        self.write_gpr(r, t);
    }

    fn write_dst(&mut self, dst: &Operand, w: Width, val: TermId) {
        match dst {
            Operand::Reg(r) => self.write_gpr_w(*r, w, val),
            Operand::Mem(m) => {
                let m = *m;
                self.store(&m, val, w.bytes() as u8);
            }
            _ => self.other_str("write to unsupported operand"),
        }
    }

    /// The value an ALU op computes. Add/sub route through the canonical
    /// linear-sum normalizer so that address and rsp arithmetic stays
    /// comparable (and `offset_of`-extractable) however it was phrased —
    /// `sub rsp, 0x30` and `lea rsp, [rsp-0x30]` must intern equal.
    fn alu_value(&mut self, op: AluOp, w: Width, a: TermId, b: TermId) -> TermId {
        match (op, w) {
            (AluOp::Add, Width::W64) => self.terms.add64(a, b),
            (AluOp::Sub, Width::W64) => self.terms.sub64(a, b),
            (AluOp::Add, Width::W32) => {
                let s = self.terms.add64(a, b);
                self.terms.low32(s)
            }
            (AluOp::Sub, Width::W32) => {
                let s = self.terms.sub64(a, b);
                self.terms.low32(s)
            }
            _ => self.terms.op(Tag::Alu(op, w), &[a, b]),
        }
    }

    fn set_flags(&mut self, src: FlagSrc, args: &[TermId]) {
        for k in 0..5u8 {
            self.st.flags[k as usize] = self.terms.op(Tag::Flag(k, src), args);
        }
    }

    fn other_str(&mut self, s: &str) {
        self.events.push(Event::Other(s.to_string()));
    }

    fn other(&mut self, inst: &Inst) {
        self.events.push(Event::Other(format!("{inst:?}")));
    }

    /// Low 64-bit lane of an SSE source operand.
    fn sse_lo(&mut self, src: &Operand) -> Option<TermId> {
        match src {
            Operand::Xmm(x) => Some(self.st.xmm_lo[*x as usize]),
            Operand::Mem(m) => {
                let m = *m;
                Some(self.load(&m, 8))
            }
            _ => None,
        }
    }

    fn do_call(&mut self, target: u64, ind: Option<TermId>) {
        let idx = self.calls;
        self.calls += 1;
        let rsp = self.gpr(Gpr::Rsp);
        let rsp_off = self.terms.offset_of(rsp, self.rsp0);
        let mut args = [TermId::default(); 6];
        for (i, &r) in SYSV_INT_ARGS.iter().enumerate() {
            args[i] = self.st.gpr[r];
        }
        let mut fargs = [TermId::default(); 8];
        fargs.copy_from_slice(&self.st.xmm_lo[0..8]);
        // If the frame escaped, the callee may read it: its live contents
        // (everything at or above the callee's view of the stack top)
        // become observable at this boundary.
        let frame = if self.escaped {
            Some(self.digest(rsp_off.unwrap_or(i64::MIN)))
        } else {
            None
        };
        self.events.push(Event::Call {
            target,
            ind,
            rsp,
            args,
            fargs,
            frame,
        });
        // Havoc everything a SysV callee may clobber, with per-call-site
        // atoms so both sides agree on the (unknown) returned values.
        let block = self.block;
        for &r in CALLER_SAVED.iter() {
            self.st.gpr[r] = self.terms.atom(Atom::CallOut {
                block,
                idx,
                slot: r as u8,
            });
        }
        for x in 0..16usize {
            self.st.xmm_lo[x] = self.terms.atom(Atom::CallOut {
                block,
                idx,
                slot: 16 + x as u8,
            });
            self.st.xmm_hi[x] = self.terms.atom(Atom::CallOut {
                block,
                idx,
                slot: 32 + x as u8,
            });
        }
        for f in 0..5usize {
            self.st.flags[f] = self.terms.atom(Atom::CallOut {
                block,
                idx,
                slot: 48 + f as u8,
            });
        }
        self.st.mem = self.terms.atom(Atom::CallMem { block, idx });
        if self.escaped {
            // The callee may rewrite any frame byte it can reach.
            self.st.frame.clear();
            self.st.epoch = self.terms.atom(Atom::CallFrame { block, idx });
        } else if let Some(off) = rsp_off {
            // Private frame: the callee still owns everything below the
            // current stack top (red zone is not preserved across calls).
            let dead: Vec<i64> = self.st.frame.range(..off).map(|(k, _)| *k).collect();
            for k in dead {
                self.st.frame.remove(&k);
            }
        } else {
            self.st.frame.clear();
        }
    }

    fn do_ret(&mut self) {
        let rsp = self.gpr(Gpr::Rsp);
        let rsp_off = self.terms.offset_of(rsp, self.rsp0);
        let val = match self.ret_kind {
            RetKind::Int => Some(self.st.gpr[0]),
            RetKind::F64 => Some(self.st.xmm_lo[0]),
            RetKind::Void => None,
        };
        let mut saved = [TermId::default(); 6];
        for (i, &r) in CALLEE_SAVED.iter().enumerate() {
            saved[i] = self.st.gpr[r];
        }
        let ret_slot = rsp_off.map(|off| self.st.frame_pack(self.terms, off, 8));
        // The caller owns everything above the return address: stores into
        // the caller's stack area must match even for a private frame.
        let frame = self.digest(rsp_off.map(|o| o + 8).unwrap_or(i64::MIN));
        self.events.push(Event::Ret {
            val,
            saved,
            rsp,
            ret_slot,
            frame,
        });
        self.halted = true;
    }

    /// The live frame contents at or above `lo`, dropping bytes that still
    /// hold their untouched initial value.
    fn digest(&self, lo: i64) -> Vec<(i64, TermId)> {
        self.st
            .frame
            .range(lo..)
            .filter(|&(&off, &v)| !self.terms.is_frame_fresh(v, self.st.epoch, off))
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    fn exec(&mut self, inst: &Inst) {
        match *inst {
            Inst::Nop => {}
            Inst::Mov {
                w,
                ref dst,
                ref src,
            } => {
                if let Some(v) = self.int_value(src, w) {
                    self.write_dst(dst, w, v);
                } else {
                    self.other(inst);
                }
            }
            Inst::MovAbs { dst, imm } => {
                let t = self.terms.constant(imm);
                self.write_gpr(dst, t);
            }
            Inst::Movsxd { dst, ref src } => {
                if let Some(v) = self.int_value(src, Width::W32) {
                    let t = self.terms.op(Tag::Movsxd, &[v]);
                    self.write_gpr(dst, t);
                } else {
                    self.other(inst);
                }
            }
            Inst::Movzx8 { w: _, dst, ref src } => {
                if let Some(v) = self.int_value(src, Width::W8) {
                    let t = self.terms.op(Tag::Movzx8, &[v]);
                    self.write_gpr(dst, t);
                } else {
                    self.other(inst);
                }
            }
            Inst::Lea { dst, ref src } => {
                let src = *src;
                let t = self.addr_term(&src);
                self.write_gpr(dst, t);
            }
            Inst::Alu {
                op,
                w,
                ref dst,
                ref src,
            } => {
                let (a, b) = match (self.int_value(dst, w), self.int_value(src, w)) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        self.other(inst);
                        return;
                    }
                };
                let flag_op = if op == AluOp::Cmp { AluOp::Sub } else { op };
                self.set_flags(FlagSrc::Alu(flag_op, w), &[a, b]);
                if op.writes_dst() {
                    let t = self.alu_value(op, w, a, b);
                    self.write_dst(dst, w, t);
                }
            }
            Inst::Test { w, ref a, ref b } => {
                let (av, bv) = match (self.int_value(a, w), self.int_value(b, w)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        self.other(inst);
                        return;
                    }
                };
                self.set_flags(FlagSrc::Test(w), &[av, bv]);
            }
            Inst::Imul { w, dst, ref src } => {
                let a = self.gpr(dst);
                let b = match self.int_value(src, w) {
                    Some(b) => b,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                self.set_flags(FlagSrc::Imul(w), &[a, b]);
                let t = self.terms.op(Tag::Imul(w), &[a, b]);
                self.write_gpr_w(dst, w, t);
            }
            Inst::ImulImm {
                w,
                dst,
                ref src,
                imm,
            } => {
                let a = match self.int_value(src, w) {
                    Some(a) => a,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                let b = self.terms.constant(imm as i64 as u64);
                self.set_flags(FlagSrc::Imul(w), &[a, b]);
                let t = self.terms.op(Tag::Imul(w), &[a, b]);
                self.write_gpr_w(dst, w, t);
            }
            Inst::Unary { op, w, ref dst } => {
                let v = match self.int_value(dst, w) {
                    Some(v) => v,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                match op {
                    UnOp::Not => {
                        let t = self.terms.op(Tag::Not(w), &[v]);
                        self.write_dst(dst, w, t);
                    }
                    UnOp::Neg => {
                        // neg ≡ sub from zero, flags included.
                        let z = self.terms.constant(0);
                        self.set_flags(FlagSrc::Alu(AluOp::Sub, w), &[z, v]);
                        let t = self.alu_value(AluOp::Sub, w, z, v);
                        self.write_dst(dst, w, t);
                    }
                    UnOp::Inc | UnOp::Dec => {
                        let one = self.terms.constant(1);
                        let alu = if op == UnOp::Inc {
                            AluOp::Add
                        } else {
                            AluOp::Sub
                        };
                        // inc/dec leave CF untouched.
                        let prev_cf = self.st.flags[0];
                        self.set_flags(FlagSrc::Alu(alu, w), &[v, one]);
                        self.st.flags[0] = prev_cf;
                        let t = self.alu_value(alu, w, v, one);
                        self.write_dst(dst, w, t);
                    }
                }
            }
            Inst::Shift {
                op,
                w,
                ref dst,
                count,
            } => {
                let v = match self.int_value(dst, w) {
                    Some(v) => v,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                match count {
                    ShiftCount::Imm(c) => {
                        let masked = c & (w.bits() - 1) as u8;
                        if masked == 0 {
                            // Count of zero: value and flags both untouched,
                            // but a 32-bit encoding still zero-extends.
                            let t = match w {
                                Width::W32 => self.terms.low32(v),
                                _ => v,
                            };
                            self.write_dst(dst, w, t);
                        } else {
                            let cnt = self.terms.constant(masked as u64);
                            self.set_flags(FlagSrc::Shift(op, w), &[v, cnt]);
                            let t = self.terms.op(Tag::ShiftVal(op, w), &[v, cnt]);
                            self.write_dst(dst, w, t);
                        }
                    }
                    ShiftCount::Cl => {
                        let cl = self.gpr(Gpr::Rcx);
                        // Flags are conditional on the masked count being
                        // nonzero: each new flag depends on its prior value.
                        let prev = self.st.flags;
                        for k in 0..5u8 {
                            self.st.flags[k as usize] = self.terms.op(
                                Tag::Flag(k, FlagSrc::ShiftCl(op, w)),
                                &[v, cl, prev[k as usize]],
                            );
                        }
                        let t = self.terms.op(Tag::ShiftVal(op, w), &[v, cl]);
                        self.write_dst(dst, w, t);
                    }
                }
            }
            Inst::Cqo { w } => {
                let rax = self.gpr(Gpr::Rax);
                let t = self.terms.op(Tag::Cqo(w), &[rax]);
                self.write_gpr(Gpr::Rdx, t);
            }
            Inst::Idiv { w, ref src } => {
                let d = match self.int_value(src, w) {
                    Some(d) => d,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                let hi = self.gpr(Gpr::Rdx);
                let lo = self.gpr(Gpr::Rax);
                let q = self.terms.op(Tag::Quot(w), &[hi, lo, d]);
                let r = self.terms.op(Tag::Rem(w), &[hi, lo, d]);
                self.set_flags(FlagSrc::Idiv(w), &[hi, lo, d]);
                self.write_gpr(Gpr::Rax, q);
                self.write_gpr(Gpr::Rdx, r);
            }
            Inst::Push { ref src } => {
                let v = match self.int_value(src, Width::W64) {
                    Some(v) => v,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                let rsp = self.gpr(Gpr::Rsp);
                let nrsp = self.terms.add_const(rsp, -8);
                self.write_gpr(Gpr::Rsp, nrsp);
                self.store_t(nrsp, v, 8);
            }
            Inst::Pop { ref dst } => {
                let rsp = self.gpr(Gpr::Rsp);
                let v = self.load_t(rsp, 8);
                let nrsp = self.terms.add_const(rsp, 8);
                self.write_gpr(Gpr::Rsp, nrsp);
                match dst {
                    Operand::Reg(r) => self.write_gpr(*r, v),
                    Operand::Mem(m) => {
                        let m = *m;
                        self.store(&m, v, 8);
                    }
                    _ => self.other(inst),
                }
            }
            Inst::CallRel { target } => self.do_call(target, None),
            Inst::CallInd { ref src } => {
                let t = match src {
                    Operand::Reg(r) => Some(self.gpr(*r)),
                    Operand::Mem(m) => {
                        let m = *m;
                        Some(self.load(&m, 8))
                    }
                    _ => None,
                };
                match t {
                    Some(t) => self.do_call(0, Some(t)),
                    None => self.other(inst),
                }
            }
            Inst::Ret => self.do_ret(),
            Inst::JmpRel { .. } | Inst::JmpInd { .. } | Inst::Jcc { .. } => {
                // Terminators are stripped by the block matcher; one inside
                // a body means the slice was wrong — surface it as an event.
                self.other(inst);
            }
            Inst::Setcc { cond, ref dst } => {
                let mut flags = [TermId::default(); 3];
                let read = cond_flags(cond);
                for (f, &k) in flags.iter_mut().zip(read) {
                    *f = self.st.flags[k];
                }
                let t = self.terms.op(Tag::Setcc(cond), &flags[..read.len()]);
                self.write_dst(dst, Width::W8, t);
            }
            Inst::MovSd { ref dst, ref src } => match (dst, src) {
                (Operand::Xmm(d), Operand::Xmm(s)) => {
                    // Register form copies only the low lane.
                    self.st.xmm_lo[*d as usize] = self.st.xmm_lo[*s as usize];
                }
                (Operand::Xmm(d), Operand::Mem(m)) => {
                    let m = *m;
                    let lo = self.load(&m, 8);
                    self.st.xmm_lo[*d as usize] = lo;
                    // Load form zeroes the high lane.
                    self.st.xmm_hi[*d as usize] = self.terms.constant(0);
                }
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    let m = *m;
                    let lo = self.st.xmm_lo[*s as usize];
                    self.store(&m, lo, 8);
                }
                _ => self.other(inst),
            },
            Inst::MovUpd { ref dst, ref src } => match (dst, src) {
                (Operand::Xmm(d), Operand::Xmm(s)) => {
                    self.st.xmm_lo[*d as usize] = self.st.xmm_lo[*s as usize];
                    self.st.xmm_hi[*d as usize] = self.st.xmm_hi[*s as usize];
                }
                (Operand::Xmm(d), Operand::Mem(m)) => {
                    let m = *m;
                    let a = self.addr_term(&m);
                    let lo = self.load_t(a, 8);
                    let ahi = self.terms.add_const(a, 8);
                    let hi = self.load_t(ahi, 8);
                    self.st.xmm_lo[*d as usize] = lo;
                    self.st.xmm_hi[*d as usize] = hi;
                }
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    let m = *m;
                    let a = self.addr_term(&m);
                    let lo = self.st.xmm_lo[*s as usize];
                    let hi = self.st.xmm_hi[*s as usize];
                    self.store_t(a, lo, 8);
                    let ahi = self.terms.add_const(a, 8);
                    self.store_t(ahi, hi, 8);
                }
                _ => self.other(inst),
            },
            Inst::Sse { op, dst, ref src } => {
                if op == SseOp::Unpcklpd {
                    // dst = [dst.lo, src.lo]; the low lane is unchanged.
                    match self.sse_lo(src) {
                        Some(slo) => self.st.xmm_hi[dst as usize] = slo,
                        None => self.other(inst),
                    }
                } else if op.is_packed() {
                    let scalar = match op {
                        SseOp::Addpd => SseOp::Addsd,
                        SseOp::Subpd => SseOp::Subsd,
                        SseOp::Mulpd => SseOp::Mulsd,
                        SseOp::Divpd => SseOp::Divsd,
                        other => other,
                    };
                    let (blo, bhi) = match src {
                        Operand::Xmm(s) => {
                            (self.st.xmm_lo[*s as usize], self.st.xmm_hi[*s as usize])
                        }
                        Operand::Mem(m) => {
                            let m = *m;
                            let a = self.addr_term(&m);
                            let lo = self.load_t(a, 8);
                            let ahi = self.terms.add_const(a, 8);
                            let hi = self.load_t(ahi, 8);
                            (lo, hi)
                        }
                        _ => {
                            self.other(inst);
                            return;
                        }
                    };
                    let alo = self.st.xmm_lo[dst as usize];
                    let ahi = self.st.xmm_hi[dst as usize];
                    self.st.xmm_lo[dst as usize] = self.terms.op(Tag::Sse(scalar), &[alo, blo]);
                    self.st.xmm_hi[dst as usize] = self.terms.op(Tag::Sse(scalar), &[ahi, bhi]);
                } else {
                    let b = match self.sse_lo(src) {
                        Some(b) => b,
                        None => {
                            self.other(inst);
                            return;
                        }
                    };
                    let a = self.st.xmm_lo[dst as usize];
                    self.st.xmm_lo[dst as usize] = self.terms.op(Tag::Sse(op), &[a, b]);
                }
            }
            Inst::Ucomisd { a, ref b } => {
                let av = self.st.xmm_lo[a as usize];
                let bv = match self.sse_lo(b) {
                    Some(bv) => bv,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                let zero = self.terms.constant(0);
                for k in [0u8, 1, 4] {
                    self.st.flags[k as usize] =
                        self.terms.op(Tag::Flag(k, FlagSrc::Ucomisd), &[av, bv]);
                }
                self.st.flags[2] = zero;
                self.st.flags[3] = zero;
            }
            Inst::Cvtsi2sd { w, dst, ref src } => {
                let v = match self.int_value(src, w) {
                    Some(v) => v,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                self.st.xmm_lo[dst as usize] = self.terms.op(Tag::Cvtsi2sd(w), &[v]);
                // High lane is preserved by cvtsi2sd.
            }
            Inst::Cvttsd2si { w, dst, ref src } => {
                let v = match self.sse_lo(src) {
                    Some(v) => v,
                    None => {
                        self.other(inst);
                        return;
                    }
                };
                let t = self.terms.op(Tag::Cvttsd2si(w), &[v]);
                self.write_gpr(dst, t);
            }
            Inst::Ud2 => {
                self.events.push(Event::Trap);
                self.halted = true;
            }
        }
    }
}

/// Execute one block's instruction list from `entry`, recording events.
/// Returns the out state, the events, and whether execution halted inside
/// the block (ret or trap).
#[allow(clippy::too_many_arguments)]
fn walk(
    terms: &mut Terms,
    img: &Image,
    snap: &KnownSnapshot,
    rsp0: TermId,
    escaped: bool,
    ret_kind: RetKind,
    block: u32,
    entry: SideState,
    insts: &[Inst],
    branch: Option<Cond>,
) -> (SideState, Vec<Event>, bool) {
    #[cfg(test)]
    tests::COUNTS.with(|c| {
        let (walks, visits) = c.get();
        c.set((walks + 1, visits));
    });
    let mut w = Walker {
        terms,
        img,
        snap,
        rsp0,
        escaped,
        ret_kind,
        block,
        calls: 0,
        st: entry,
        events: Vec::new(),
        halted: false,
    };
    for inst in insts {
        if w.halted {
            break;
        }
        w.exec(inst);
    }
    if !w.halted {
        if let Some(c) = branch {
            let flags: Vec<TermId> = cond_flags(c).iter().map(|&k| w.st.flags[k]).collect();
            w.events.push(Event::Branch {
                cc: c.code() & !1,
                flags,
            });
        }
    }
    (w.st, w.events, w.halted)
}

/// How many instructions at the tail of an emitted block slice realize the
/// captured terminator. Returns the body length (slice minus terminator).
fn match_term(
    insts: &[(u64, Inst, usize)],
    slice_end: u64,
    term: &Terminator,
    addrs: &[u64],
) -> Result<usize, String> {
    let len = insts.len();
    match *term {
        Terminator::Ret => Ok(len),
        Terminator::Jmp(t) => {
            let ta = addrs[t.0];
            if let Some(&(_, Inst::JmpRel { target }, _)) = insts.last() {
                if target == ta {
                    return Ok(len - 1);
                }
                return Err(format!(
                    "jmp targets {target:#x}, captured successor is {ta:#x}"
                ));
            }
            if slice_end == ta {
                return Ok(len);
            }
            Err(format!(
                "block falls through to {slice_end:#x}, captured successor is {ta:#x}"
            ))
        }
        Terminator::Jcc { cond, taken, fall } => {
            let ta = addrs[taken.0];
            let fa = addrs[fall.0];
            if len >= 2 {
                if let (
                    &(_, Inst::Jcc { cond: c, target: x }, _),
                    &(_, Inst::JmpRel { target: y }, _),
                ) = (&insts[len - 2], &insts[len - 1])
                {
                    if (c == cond && x == ta && y == fa)
                        || (c == cond.negate() && x == fa && y == ta)
                    {
                        return Ok(len - 2);
                    }
                    return Err(format!(
                        "jcc/jmp pair ({c:?} {x:#x} / {y:#x}) does not realize captured \
                         branch ({cond:?} taken {ta:#x} fall {fa:#x})"
                    ));
                }
            }
            if let Some(&(_, Inst::Jcc { cond: c, target: x }, _)) = insts.last() {
                if (c == cond && x == ta && slice_end == fa)
                    || (c == cond.negate() && x == fa && slice_end == ta)
                {
                    return Ok(len - 1);
                }
                return Err(format!(
                    "jcc ({c:?} {x:#x}, falls to {slice_end:#x}) does not realize captured \
                     branch ({cond:?} taken {ta:#x} fall {fa:#x})"
                ));
            }
            Err("captured block ends in jcc but emitted block has no branch".into())
        }
    }
}

/// One captured block paired with its emitted counterpart.
struct BlockPlan {
    pre: Vec<Inst>,
    post: Vec<Inst>,
    branch: Option<Cond>,
    succs: Vec<usize>,
    addr: u64,
}

/// Join the incoming state into the accumulated state for a block, using
/// shared phi atoms so that matching differences on the two sides stay
/// term-identical. Returns true if anything changed.
fn join(
    terms: &mut Terms,
    cur: &mut (SideState, SideState),
    inc_pre: &SideState,
    inc_post: &SideState,
    block: u32,
) -> bool {
    /// Maximal consecutive byte runs of the joint key set, chopped into
    /// 8/4/1-byte chunks. Joining the frame at chunk granularity (packed
    /// back into wholes) is what lets a value that one side keeps spilled
    /// and the other keeps in a register share a phi class: the chunk's
    /// pack collapses to the same whole term the register holds.
    fn chunks(a: &SideState, b: &SideState) -> Vec<(i64, u8)> {
        let mut keys: Vec<i64> = a.frame.keys().chain(b.frame.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Vec::new();
        let mut i = 0;
        while i < keys.len() {
            let mut j = i + 1;
            while j < keys.len() && keys[j] == keys[j - 1] + 1 {
                j += 1;
            }
            let mut off = keys[i];
            let mut len = (j - i) as i64;
            while len > 0 {
                let c: i64 = if len >= 8 {
                    8
                } else if len >= 4 {
                    4
                } else {
                    1
                };
                out.push((off, c as u8));
                off += c;
                len -= c;
            }
            i = j;
        }
        out
    }
    /// Flatten one side's accumulated state `s` and incoming state `i`
    /// into joint location vectors: the 55 register, flag and memory
    /// locations, then one packed value per frame chunk. A chunk whose
    /// bytes and epoch agree on both states would pack to one term and
    /// never take a phi, so it is not packed: it gets an equal placeholder
    /// in both vectors (keeping every location's index, which names its
    /// phi class) and `differs[ci] = false`, and its bytes stay as they are.
    fn flatten(
        terms: &mut Terms,
        s: &SideState,
        i: &SideState,
        chunks: &[(i64, u8)],
        cur_flat: &mut Vec<TermId>,
        inc_flat: &mut Vec<TermId>,
        differs: &mut Vec<bool>,
    ) {
        for (v, st) in [(&mut *cur_flat, s), (&mut *inc_flat, i)] {
            v.extend_from_slice(&st.gpr);
            v.extend_from_slice(&st.xmm_lo);
            v.extend_from_slice(&st.xmm_hi);
            v.extend_from_slice(&st.flags);
            v.push(st.mem);
            v.push(st.epoch);
        }
        let same_epoch = s.epoch == i.epoch;
        for &(off, len) in chunks {
            let range = off..off + len as i64;
            let differ = !same_epoch || !s.frame.range(range.clone()).eq(i.frame.range(range));
            differs.push(differ);
            if differ {
                cur_flat.push(s.frame_pack(terms, off, len));
                inc_flat.push(i.frame_pack(terms, off, len));
            } else {
                cur_flat.push(TermId::default());
                inc_flat.push(TermId::default());
            }
        }
    }
    /// Write joined locations back into `s`, rebuilding only the frame
    /// chunks that were packed.
    fn unflatten(
        terms: &mut Terms,
        s: &mut SideState,
        chunks: &[(i64, u8)],
        differs: &[bool],
        v: &[TermId],
    ) {
        s.gpr.copy_from_slice(&v[0..16]);
        s.xmm_lo.copy_from_slice(&v[16..32]);
        s.xmm_hi.copy_from_slice(&v[32..48]);
        s.flags.copy_from_slice(&v[48..53]);
        s.mem = v[53];
        s.epoch = v[54];
        for (ci, &(off, len)) in chunks.iter().enumerate() {
            if !differs[ci] {
                continue;
            }
            let t = v[55 + ci];
            for k in 0..len as i64 {
                let b = terms.byte(t, k as u8);
                if terms.is_frame_fresh(b, s.epoch, off + k) {
                    s.frame.remove(&(off + k));
                } else {
                    s.frame.insert(off + k, b);
                }
            }
        }
    }

    let pre_chunks = chunks(&cur.0, inc_pre);
    let post_chunks = chunks(&cur.1, inc_post);
    let mut cur_flat = Vec::with_capacity(110 + pre_chunks.len() + post_chunks.len());
    let mut inc_flat = Vec::with_capacity(cur_flat.capacity());
    let mut pre_differs = Vec::with_capacity(pre_chunks.len());
    let mut post_differs = Vec::with_capacity(post_chunks.len());
    flatten(
        terms,
        &cur.0,
        inc_pre,
        &pre_chunks,
        &mut cur_flat,
        &mut inc_flat,
        &mut pre_differs,
    );
    let pre_len = cur_flat.len();
    flatten(
        terms,
        &cur.1,
        inc_post,
        &post_chunks,
        &mut cur_flat,
        &mut inc_flat,
        &mut post_differs,
    );

    // Locations that disagree between accumulated and incoming state get a
    // phi. The phi class is keyed by the (current, incoming) value pair so
    // that two locations carrying the same moved value — e.g. the pre side's
    // register and the post side's coalesced register — receive the *same*
    // phi atom, keeping them provably equal downstream.
    let mut class: HashMap<(TermId, TermId), u32, FxBuild> = HashMap::default();
    let mut changed = false;
    for i in 0..cur_flat.len() {
        let (c, v) = (cur_flat[i], inc_flat[i]);
        if c == v {
            continue;
        }
        let cls = *class.entry((c, v)).or_insert(i as u32);
        let phi = terms.atom(Atom::Phi { block, class: cls });
        if cur_flat[i] != phi {
            cur_flat[i] = phi;
            changed = true;
        }
    }
    if changed {
        unflatten(
            terms,
            &mut cur.0,
            &pre_chunks,
            &pre_differs,
            &cur_flat[..pre_len],
        );
        unflatten(
            terms,
            &mut cur.1,
            &post_chunks,
            &post_differs,
            &cur_flat[pre_len..],
        );
    }
    changed
}

fn render_event(terms: &Terms, e: &Event) -> String {
    match e {
        Event::Store { len, addr, val } => format!(
            "store{} [{}] <- {}",
            len,
            terms.render(*addr),
            terms.render(*val)
        ),
        Event::Call {
            target,
            ind,
            rsp,
            args,
            ..
        } => {
            let dest = match ind {
                Some(t) => format!("*{}", terms.render(*t)),
                None => format!("{target:#x}"),
            };
            format!(
                "call {dest} rsp={} rdi={} rsi={}",
                terms.render(*rsp),
                terms.render(args[0]),
                terms.render(args[1])
            )
        }
        Event::Ret { val, rsp, .. } => {
            let v = match val {
                Some(t) => terms.render(*t),
                None => "void".into(),
            };
            format!("ret {} rsp={}", v, terms.render(*rsp))
        }
        Event::Branch { cc, flags } => {
            let f: Vec<String> = flags.iter().map(|&t| terms.render(t)).collect();
            format!("branch cc={cc} on [{}]", f.join(", "))
        }
        Event::Trap => "trap".into(),
        Event::Other(s) => format!("unmodeled: {s}"),
    }
}

fn reject(report: &mut VerifyReport, addr: u64, detail: String) {
    report.findings.push(Finding {
        rule: Rule::Equivalence,
        severity: Severity::Error,
        addr,
        detail,
    });
}

/// Translation-validate `res` (the emitted, optimized code) against `cap`
/// (the pre-pass captured CFG). Pushes `Rule::Equivalence` findings into
/// `report` on any failure to prove equivalence.
pub(crate) fn check(
    img: &Image,
    req: &SpecRequest,
    res: &RewriteResult,
    cap: &EquivCapture,
    report: &mut VerifyReport,
) {
    // Decode the emitted region independently (a scratch report: decode
    // problems are already covered by the structural tiers).
    let mut scratch = VerifyReport::default();
    let region = match cfg::decode_region(img, res.entry, res.code_len, &mut scratch) {
        Some(r) => r,
        None => {
            reject(
                report,
                res.entry,
                "emitted region failed to decode for equivalence checking".into(),
            );
            return;
        }
    };

    let nblocks = cap.blocks.len();
    if cap.entry_block >= nblocks || cap.block_addrs.len() != nblocks {
        reject(report, res.entry, "malformed equivalence capture".into());
        return;
    }

    // Reachable captured blocks, in deterministic discovery order.
    let mut reach = vec![false; nblocks];
    let mut order: Vec<usize> = Vec::new();
    let mut bfs = VecDeque::new();
    reach[cap.entry_block] = true;
    bfs.push_back(cap.entry_block);
    while let Some(b) = bfs.pop_front() {
        order.push(b);
        for s in cap.blocks[b].term.successors() {
            if !reach[s.0] {
                reach[s.0] = true;
                bfs.push_back(s.0);
            }
        }
    }

    if cap.block_addrs[cap.entry_block] != res.entry {
        reject(
            report,
            res.entry,
            format!(
                "entry block laid out at {:#x}, variant entry is {:#x}",
                cap.block_addrs[cap.entry_block], res.entry
            ),
        );
        return;
    }
    for &b in &order {
        if cap.block_addrs[b] == u64::MAX {
            reject(
                report,
                res.entry,
                format!("reachable captured block {b} was never laid out"),
            );
            return;
        }
    }

    // Slice the decoded region into per-block instruction runs: each block
    // extends from its address to the next block address (or region end).
    let mut sorted_addrs: Vec<u64> = order.iter().map(|&b| cap.block_addrs[b]).collect();
    sorted_addrs.sort_unstable();
    sorted_addrs.dedup();
    let region_end = res.entry + res.code_len as u64;

    let mut plans: Vec<Option<BlockPlan>> = (0..nblocks).map(|_| None).collect();
    for &b in &order {
        let blk = &cap.blocks[b];
        let addr = cap.block_addrs[b];
        let mut end = sorted_addrs
            .iter()
            .find(|&&a| a > addr)
            .copied()
            .unwrap_or(region_end);
        // A block whose body was fully optimized away and whose jmp was
        // elided occupies zero bytes: it shares its address with its jump
        // target, and every instruction at that address belongs to the
        // target, not to this block.
        if let Terminator::Jmp(t) = blk.term {
            if cap.block_addrs[t.0] == addr {
                end = addr;
            }
        }
        let start = match region.insts.binary_search_by_key(&addr, |&(a, _, _)| a) {
            Ok(i) => i,
            Err(_) => {
                reject(
                    report,
                    addr,
                    format!(
                        "captured block {b} address {addr:#x} is not on an instruction boundary"
                    ),
                );
                return;
            }
        };
        let mut stop = start;
        while stop < region.insts.len() && region.insts[stop].0 < end {
            stop += 1;
        }
        let slice = &region.insts[start..stop];
        let body_len = match match_term(slice, end, &blk.term, &cap.block_addrs) {
            Ok(n) => n,
            Err(e) => {
                reject(report, addr, format!("block {b} terminator mismatch: {e}"));
                return;
            }
        };
        let branch = match blk.term {
            Terminator::Jcc { cond, .. } => Some(cond),
            _ => None,
        };
        let succs: Vec<usize> = blk.term.successors().map(|s| s.0).collect();
        plans[b] = Some(BlockPlan {
            pre: blk.insts.iter().map(|ci| ci.inst).collect(),
            post: slice[..body_len].iter().map(|&(_, i, _)| i).collect(),
            branch,
            succs,
            addr,
        });
    }

    let snap = &res.snapshot;
    let escaped = cap.frame_escaped;
    let ret_kind = req.config().ret;

    let mut terms = Terms::default();
    let init = SideState::entry(&mut terms);
    let rsp0 = init.gpr[Gpr::Rsp as usize];

    // Joint fixpoint over (pre, post) states. A block is re-queued
    // whenever its entry state changes, so its last walk here starts from
    // its final entry state: that walk's event streams are the ones
    // compared, and no block is walked again for the comparison.
    let mut states: Vec<Option<(SideState, SideState)>> = (0..nblocks).map(|_| None).collect();
    let mut events: Vec<Option<(Vec<Event>, Vec<Event>)>> = (0..nblocks).map(|_| None).collect();
    let mut visits = vec![0u32; nblocks];
    states[cap.entry_block] = Some((init.clone(), init));
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(cap.entry_block);
    while let Some(b) = work.pop_front() {
        visits[b] += 1;
        if visits[b] > 200 {
            reject(
                report,
                res.entry,
                format!("equivalence fixpoint did not converge at block {b}"),
            );
            return;
        }
        let plan = match plans[b].as_ref() {
            Some(p) => p,
            None => continue,
        };
        let (spre, spost) = match states[b].clone() {
            Some(s) => s,
            None => continue,
        };
        #[cfg(test)]
        tests::COUNTS.with(|c| {
            let (walks, visits) = c.get();
            c.set((walks, visits + 1));
        });
        let (out_pre, ev_pre, halt_pre) = walk(
            &mut terms,
            img,
            snap,
            rsp0,
            escaped,
            ret_kind,
            b as u32,
            spre,
            &plan.pre,
            plan.branch,
        );
        let (out_post, ev_post, halt_post) = walk(
            &mut terms,
            img,
            snap,
            rsp0,
            escaped,
            ret_kind,
            b as u32,
            spost,
            &plan.post,
            plan.branch,
        );
        events[b] = Some((ev_pre, ev_post));
        if halt_pre || halt_post {
            continue;
        }
        for &s in &plan.succs {
            match states[s].as_mut() {
                None => {
                    states[s] = Some((out_pre.clone(), out_post.clone()));
                    work.push_back(s);
                }
                Some(cur) => {
                    if join(&mut terms, cur, &out_pre, &out_post, s as u32) {
                        work.push_back(s);
                    }
                }
            }
        }
    }

    // Compare the observable event streams of the two sides block by
    // block, from each block's final walk.
    for &b in &order {
        let ((ev_pre, ev_post), plan) = match (events[b].as_ref(), plans[b].as_ref()) {
            (Some(ev), Some(plan)) => (ev, plan),
            _ => continue,
        };
        let mut diverged = false;
        for (i, (pe, qe)) in ev_pre.iter().zip(ev_post.iter()).enumerate() {
            if pe != qe {
                reject(
                    report,
                    plan.addr,
                    format!(
                        "block {b} event {i} diverges: baseline {} vs optimized {}",
                        render_event(&terms, pe),
                        render_event(&terms, qe)
                    ),
                );
                diverged = true;
                break;
            }
        }
        if !diverged && ev_pre.len() != ev_post.len() {
            reject(
                report,
                plan.addr,
                format!(
                    "block {b} observable event count diverges: baseline {} vs optimized {}",
                    ev_pre.len(),
                    ev_post.len()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use brew_core::{PassConfig, RetKind, Rewriter, SpecRequest};
    use brew_image::Image;
    use std::cell::Cell;

    thread_local! {
        /// `(block walks, fixpoint visits)` of the checks run on this
        /// thread.
        pub(super) static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// Every block walk is one of the two walks (pre and post) of a
    /// fixpoint visit: the comparison walks nothing again.
    #[test]
    fn comparison_reuses_the_fixpoint_walks() {
        const PROG: &str = r#"
            int powsum(int x, int n) {
                int r = 1;
                int s = 0;
                for (int i = 0; i < n; i++) { s += r; r *= x; }
                return s;
            }
        "#;
        let img = Image::new();
        let prog = brew_minic::compile_into(PROG, &img).unwrap();
        let func = prog.func("powsum").unwrap();
        for passes in [PassConfig::default(), PassConfig::none()] {
            let req = SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .ret(RetKind::Int)
                .func(func, |o| o.max_variants = 1)
                .passes(passes);
            let res = Rewriter::new(&img).rewrite(func, &req).unwrap();
            let blocks = res.equiv.as_ref().unwrap().blocks.len() as u64;
            COUNTS.with(|c| c.set((0, 0)));
            let report = crate::verify(&img, func, &req, &res, &Default::default());
            assert!(report.passed(), "{passes:?}: clean loop variant rejected");
            let (walks, visits) = COUNTS.with(|c| c.get());
            assert!(
                visits > blocks,
                "{passes:?}: the loop must be walked again after its back-edge join \
                 ({visits} visits, {blocks} blocks)"
            );
            assert_eq!(
                walks,
                2 * visits,
                "{passes:?}: extra walks outside the fixpoint"
            );
        }
    }
}
