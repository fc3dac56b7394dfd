//! Slot promotion through [`crate::regalloc`]'s slot phase, one frame-slot
//! shape per test. Every block ends in the body `ret` the tracer emits,
//! which the allocator treats as the return boundary.

mod tests {
    use crate::capture::{CapturedBlock, CapturedInst, Terminator};
    use crate::regalloc::{allocate_slots, LiveSet};
    use brew_x86::prelude::*;

    /// Run the slot phase over one traced block holding `insts` and a body
    /// `ret`; returns the conversions and the rewritten instructions.
    fn promote(mut insts: Vec<CapturedInst>, frame_escaped: bool) -> (u64, Vec<Inst>) {
        insts.push(CapturedInst::plain(Inst::Ret));
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts;
        b.term = Terminator::Ret;
        b.traced = true;
        let mut blocks = vec![b];
        let n = allocate_slots(&mut blocks, frame_escaped, LiveSet::ABI_RET);
        (n, blocks[0].insts.iter().map(|ci| ci.inst).collect())
    }

    fn fstore(off: i64, src: Xmm) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off as i32)),
                src: Operand::Xmm(src),
            },
            frame_store: Some(off),
            frame_load: None,
        }
    }

    fn fload(dst: Xmm, off: i64) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Xmm(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off as i32)),
            },
            frame_store: None,
            frame_load: Some(off),
        }
    }

    #[test]
    fn promotes_xmm_accumulator_round_trips() {
        let (n, out) = promote(
            vec![
                fstore(-16, Xmm::Xmm0),
                fload(Xmm::Xmm0, -16),
                fstore(-16, Xmm::Xmm0),
                fload(Xmm::Xmm0, -16),
            ],
            false,
        );
        assert_eq!(n, 4, "{out:?}");
        // Every access became a register-register move (into xmm15).
        assert_eq!(
            out[0],
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm15),
                src: Operand::Xmm(Xmm::Xmm0),
            }
        );
        for inst in &out[..4] {
            assert!(
                matches!(
                    inst,
                    Inst::MovSd {
                        dst: Operand::Xmm(_),
                        src: Operand::Xmm(_)
                    }
                ),
                "{out:?}"
            );
        }
    }

    #[test]
    fn respects_escape_and_calls() {
        let (n, _) = promote(vec![fstore(-16, Xmm::Xmm0), fload(Xmm::Xmm0, -16)], true);
        assert_eq!(n, 0);

        let (n, out) = promote(
            vec![
                fstore(-16, Xmm::Xmm0),
                CapturedInst::plain(Inst::CallRel { target: 0x400000 }),
                fload(Xmm::Xmm0, -16),
            ],
            false,
        );
        assert_eq!(n, 0, "{out:?}");
    }

    #[test]
    fn mixed_class_slot_not_promoted() {
        // Same slot accessed as both integer and double: leave it alone.
        let gpr_load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -16)),
            },
            frame_store: None,
            frame_load: Some(-16),
        };
        let (n, out) = promote(vec![fstore(-16, Xmm::Xmm0), gpr_load], false);
        assert_eq!(n, 0, "{out:?}");
    }

    #[test]
    fn push_disqualifies_slot() {
        let push = CapturedInst {
            inst: Inst::Push {
                src: Operand::Reg(Gpr::Rax),
            },
            frame_store: Some(-16),
            frame_load: None,
        };
        let (n, out) = promote(
            vec![push, fload(Xmm::Xmm0, -16), fstore(-16, Xmm::Xmm0)],
            false,
        );
        assert_eq!(n, 0, "{out:?}");
    }

    #[test]
    fn used_registers_are_not_recruited() {
        // Block already uses xmm8..xmm15: nothing free.
        let mut insts = vec![fstore(-16, Xmm::Xmm0), fload(Xmm::Xmm0, -16)];
        for n in 8..16 {
            let x = Xmm::from_number(n);
            insts.push(CapturedInst::plain(Inst::Sse {
                op: SseOp::Addsd,
                dst: x,
                src: Operand::Xmm(x),
            }));
        }
        let (n, out) = promote(insts, false);
        assert_eq!(n, 0, "{out:?}");
    }

    #[test]
    fn gpr_slot_promotion() {
        let store = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rax),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let (n, out) = promote(vec![store, load], false);
        assert_eq!(n, 2);
        assert_eq!(
            out[0],
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::R11),
                src: Operand::Reg(Gpr::Rax)
            }
        );
        assert_eq!(
            out[1],
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::R11)
            }
        );
    }
}
