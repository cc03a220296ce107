//! RISC-V fusion idioms (paper Table I, after Celio et al. [7]).
//!
//! The memory **pairing** idioms — [`Idiom::LoadPair`] and
//! [`Idiom::StorePair`] — are the bold entries of Table I; the paper shows
//! they are both the most frequent and the most profitable (§III-B).
//! The remaining idioms fuse an ALU µ-op with a dependent ALU or memory µ-op.

use helios_isa::{AluImmOp, AluOp, Inst};
use std::fmt;

/// A fusion idiom from Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Idiom {
    /// `ld rd1, o(rb); ld rd2, o±s(rb)` — **memory pair** (bold).
    LoadPair,
    /// `sd rs1, o(rb); sd rs2, o±s(rb)` — **memory pair** (bold).
    StorePair,
    /// `lui rd, hi; addi[w] rd, rd, lo` — 32-bit load-immediate.
    LuiAddi,
    /// `auipc rd, hi; addi rd, rd, lo` — PC-relative address generation.
    AuipcAddi,
    /// `slli rd, rs, {1,2,3}; add rd, rX, rd` — load effective address.
    SlliAdd,
    /// `slli rd, rs, 32; srli rd, rd, 32` — clear upper word (zero-extend).
    SlliSrli,
    /// `add rd, rs1, rs2; ld rd, 0(rd)` — indexed load.
    IndexedLoad,
    /// `lui rd, hi; ld rd, lo(rd)` (or `auipc` base) — load global.
    LoadGlobal,
}

/// All idioms, in Table I order (memory pairs first).
pub const ALL_IDIOMS: [Idiom; 8] = [
    Idiom::LoadPair,
    Idiom::StorePair,
    Idiom::LuiAddi,
    Idiom::AuipcAddi,
    Idiom::SlliAdd,
    Idiom::SlliSrli,
    Idiom::IndexedLoad,
    Idiom::LoadGlobal,
];

impl Idiom {
    /// This idiom's position in [`ALL_IDIOMS`] (total — no panic path).
    pub const fn index(self) -> usize {
        match self {
            Idiom::LoadPair => 0,
            Idiom::StorePair => 1,
            Idiom::LuiAddi => 2,
            Idiom::AuipcAddi => 3,
            Idiom::SlliAdd => 4,
            Idiom::SlliSrli => 5,
            Idiom::IndexedLoad => 6,
            Idiom::LoadGlobal => 7,
        }
    }

    /// Whether this is one of the bold memory-pairing idioms of Table I.
    ///
    /// Memory pairs save LQ/SQ entries in addition to ROB/IQ entries, and can
    /// halve the number of cache accesses — the paper's Figure 2/3 split.
    #[inline]
    pub fn is_memory_pair(self) -> bool {
        matches!(self, Idiom::LoadPair | Idiom::StorePair)
    }

    /// Human-readable name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            Idiom::LoadPair => "load pair",
            Idiom::StorePair => "store pair",
            Idiom::LuiAddi => "lui+addi (load imm32)",
            Idiom::AuipcAddi => "auipc+addi (pc-rel addr)",
            Idiom::SlliAdd => "slli+add (LEA)",
            Idiom::SlliSrli => "slli+srli (clear upper)",
            Idiom::IndexedLoad => "add+ld (indexed load)",
            Idiom::LoadGlobal => "lui/auipc+ld (load global)",
        }
    }
}

impl fmt::Display for Idiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Statically matches a **memory pairing** idiom on two µ-ops
/// (consecutive in program order: `head` older, `tail` younger).
///
/// Mirrors the decode-time `fuse(op0, op1)` formula of §II-B, with the
/// CSF-SBR relaxation of §V-A: the two accesses must be contiguous through
/// the *same base register* but may be asymmetric (different sizes).
///
/// Rejects dependent loads (`ld x1, 0(x1); ld x5, 0(x1)` — §II-B) and pairs
/// whose destinations collide.
pub fn match_mem_pair(head: &Inst, tail: &Inst) -> Option<Idiom> {
    match (head, tail) {
        (
            Inst::Load {
                rd: rd0,
                rs1: b0,
                offset: o0,
                width: w0,
                ..
            },
            Inst::Load {
                rd: rd1,
                rs1: b1,
                offset: o1,
                width: w1,
                ..
            },
        ) => {
            if b0 != b1 {
                return None;
            }
            // Dependent loads: the head writes the shared base register, or
            // the tail would overwrite it while the head still needs it.
            if rd0 == b0 || rd1 == b0 {
                return None;
            }
            // Distinct destinations (two architectural results).
            if rd0 == rd1 {
                return None;
            }
            statically_contiguous(*o0, w0.bytes(), *o1, w1.bytes()).then_some(Idiom::LoadPair)
        }
        (
            Inst::Store {
                rs1: b0,
                offset: o0,
                width: w0,
                ..
            },
            Inst::Store {
                rs1: b1,
                offset: o1,
                width: w1,
                ..
            },
        ) => {
            if b0 != b1 {
                return None;
            }
            statically_contiguous(*o0, w0.bytes(), *o1, w1.bytes()).then_some(Idiom::StorePair)
        }
        _ => None,
    }
}

/// `|imm0 - imm1| == mem_size` of the lower access: byte-adjacent,
/// non-overlapping.
fn statically_contiguous(o0: i32, s0: u64, o1: i32, s1: u64) -> bool {
    let (lo_off, lo_size, hi_off) = if o0 <= o1 {
        (o0 as i64, s0 as i64, o1 as i64)
    } else {
        (o1 as i64, s1 as i64, o0 as i64)
    };
    lo_off + lo_size == hi_off
}

/// Statically matches a **non-memory-pair** idiom (the non-bold Table I rows)
/// on two consecutive µ-ops.
pub fn match_other_idiom(head: &Inst, tail: &Inst) -> Option<Idiom> {
    match (head, tail) {
        // lui rd, hi ; addi[w] rd, rd, lo
        (
            Inst::Lui { rd: rd0, .. },
            Inst::OpImm {
                op: AluImmOp::Addi | AluImmOp::Addiw,
                rd: rd1,
                rs1,
                ..
            },
        ) if rd0 == rd1 && rs1 == rd0 => Some(Idiom::LuiAddi),
        // auipc rd, hi ; addi rd, rd, lo
        (
            Inst::Auipc { rd: rd0, .. },
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: rd1,
                rs1,
                ..
            },
        ) if rd0 == rd1 && rs1 == rd0 => Some(Idiom::AuipcAddi),
        // slli rd, rs, 32 ; srli rd, rd, 32
        (
            Inst::OpImm {
                op: AluImmOp::Slli,
                rd: rd0,
                imm: 32,
                ..
            },
            Inst::OpImm {
                op: AluImmOp::Srli,
                rd: rd1,
                rs1,
                imm: 32,
            },
        ) if rd0 == rd1 && rs1 == rd0 => Some(Idiom::SlliSrli),
        // slli rd, rs, {1,2,3} ; add rd, rX, rd  (address scaling)
        (
            Inst::OpImm {
                op: AluImmOp::Slli,
                rd: rd0,
                imm,
                ..
            },
            Inst::Op {
                op: AluOp::Add,
                rd: rd1,
                rs1,
                rs2,
            },
        ) if (1..=3).contains(imm)
            && rd0 == rd1
            && (rs1 == rd0 || rs2 == rd0)
            && !(rs1 == rd0 && rs2 == rd0) =>
        {
            Some(Idiom::SlliAdd)
        }
        // add rd, rs1, rs2 ; ld rd, 0(rd)
        (
            Inst::Op {
                op: AluOp::Add,
                rd: rd0,
                ..
            },
            Inst::Load {
                rd: rd1,
                rs1,
                offset: 0,
                ..
            },
        ) if rs1 == rd0 && rd1 == rd0 => Some(Idiom::IndexedLoad),
        // lui/auipc rd, hi ; ld rd, lo(rd)
        (Inst::Lui { rd: rd0, .. } | Inst::Auipc { rd: rd0, .. }, Inst::Load { rd: rd1, rs1, .. })
            if rs1 == rd0 && rd1 == rd0 =>
        {
            Some(Idiom::LoadGlobal)
        }
        _ => None,
    }
}

/// Matches any Table I idiom, controlled by which categories are enabled.
pub fn match_idiom(head: &Inst, tail: &Inst, mem_pairs: bool, others: bool) -> Option<Idiom> {
    if mem_pairs {
        if let Some(i) = match_mem_pair(head, tail) {
            return Some(i);
        }
    }
    if others {
        if let Some(i) = match_other_idiom(head, tail) {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_isa::{MemWidth, Reg};

    fn ld(rd: Reg, offset: i32, rs1: Reg) -> Inst {
        Inst::Load {
            width: MemWidth::D,
            signed: true,
            rd,
            rs1,
            offset,
        }
    }
    fn lw(rd: Reg, offset: i32, rs1: Reg) -> Inst {
        Inst::Load {
            width: MemWidth::W,
            signed: true,
            rd,
            rs1,
            offset,
        }
    }
    fn sd(rs2: Reg, offset: i32, rs1: Reg) -> Inst {
        Inst::Store {
            width: MemWidth::D,
            rs2,
            rs1,
            offset,
        }
    }

    #[test]
    fn load_pair_basic() {
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::SP), &ld(Reg::A1, 8, Reg::SP)),
            Some(Idiom::LoadPair)
        );
        // Descending offsets also contiguous.
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 8, Reg::SP), &ld(Reg::A1, 0, Reg::SP)),
            Some(Idiom::LoadPair)
        );
    }

    #[test]
    fn load_pair_asymmetric_allowed() {
        // lw (4B) at 0 then ld (8B) at 4: contiguous, asymmetric.
        assert_eq!(
            match_mem_pair(&lw(Reg::A0, 0, Reg::SP), &ld(Reg::A1, 4, Reg::SP)),
            Some(Idiom::LoadPair)
        );
    }

    #[test]
    fn load_pair_rejects_gap_and_overlap() {
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::SP), &ld(Reg::A1, 16, Reg::SP)),
            None
        );
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::SP), &ld(Reg::A1, 4, Reg::SP)),
            None
        );
    }

    #[test]
    fn load_pair_rejects_dependent_loads() {
        // §II-B: ld x1, 0(x1); ld x5, 8(x1) — second depends on first.
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::A0), &ld(Reg::A1, 8, Reg::A0)),
            None
        );
        // Tail clobbers the base register: still fine architecturally if it's
        // the tail's own dest... but we reject as the fused µ-op would read
        // and write the base simultaneously.
        assert_eq!(
            match_mem_pair(&ld(Reg::A1, 0, Reg::A0), &ld(Reg::A0, 8, Reg::A0)),
            None
        );
    }

    #[test]
    fn load_pair_rejects_different_base() {
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::SP), &ld(Reg::A1, 8, Reg::S0)),
            None
        );
    }

    #[test]
    fn store_pair_basic() {
        assert_eq!(
            match_mem_pair(&sd(Reg::A0, 0, Reg::SP), &sd(Reg::A1, 8, Reg::SP)),
            Some(Idiom::StorePair)
        );
        // Stores may even use the same data register.
        assert_eq!(
            match_mem_pair(&sd(Reg::A0, 8, Reg::SP), &sd(Reg::A0, 0, Reg::SP)),
            Some(Idiom::StorePair)
        );
    }

    #[test]
    fn mixed_load_store_rejected() {
        assert_eq!(
            match_mem_pair(&ld(Reg::A0, 0, Reg::SP), &sd(Reg::A1, 8, Reg::SP)),
            None
        );
    }

    #[test]
    fn lui_addi_idiom() {
        let head = Inst::Lui {
            rd: Reg::A0,
            imm20: 0x12345,
        };
        let tail = Inst::OpImm {
            op: AluImmOp::Addiw,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 0x678,
        };
        assert_eq!(match_other_idiom(&head, &tail), Some(Idiom::LuiAddi));
        // Different destination: no idiom.
        let tail2 = Inst::OpImm {
            op: AluImmOp::Addiw,
            rd: Reg::A1,
            rs1: Reg::A0,
            imm: 0x678,
        };
        assert_eq!(match_other_idiom(&head, &tail2), None);
    }

    #[test]
    fn slli_srli_clear_upper() {
        let head = Inst::OpImm {
            op: AluImmOp::Slli,
            rd: Reg::T0,
            rs1: Reg::A0,
            imm: 32,
        };
        let tail = Inst::OpImm {
            op: AluImmOp::Srli,
            rd: Reg::T0,
            rs1: Reg::T0,
            imm: 32,
        };
        assert_eq!(match_other_idiom(&head, &tail), Some(Idiom::SlliSrli));
        // Wrong shift amount.
        let head2 = Inst::OpImm {
            op: AluImmOp::Slli,
            rd: Reg::T0,
            rs1: Reg::A0,
            imm: 16,
        };
        assert_eq!(match_other_idiom(&head2, &tail), None);
    }

    #[test]
    fn slli_add_lea() {
        let head = Inst::OpImm {
            op: AluImmOp::Slli,
            rd: Reg::T0,
            rs1: Reg::A1,
            imm: 3,
        };
        let tail = Inst::Op {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::A0,
            rs2: Reg::T0,
        };
        assert_eq!(match_other_idiom(&head, &tail), Some(Idiom::SlliAdd));
    }

    #[test]
    fn indexed_load() {
        let head = Inst::Op {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let tail = ld(Reg::T0, 0, Reg::T0);
        assert_eq!(match_other_idiom(&head, &tail), Some(Idiom::IndexedLoad));
        // Non-zero offset is not the idiom.
        let tail2 = ld(Reg::T0, 8, Reg::T0);
        assert_eq!(match_other_idiom(&head, &tail2), None);
    }

    #[test]
    fn load_global() {
        let head = Inst::Lui {
            rd: Reg::T1,
            imm20: 0x100,
        };
        let tail = ld(Reg::T1, 0x50, Reg::T1);
        assert_eq!(match_other_idiom(&head, &tail), Some(Idiom::LoadGlobal));
    }

    #[test]
    fn match_idiom_category_gates() {
        let h = ld(Reg::A0, 0, Reg::SP);
        let t = ld(Reg::A1, 8, Reg::SP);
        assert_eq!(match_idiom(&h, &t, true, true), Some(Idiom::LoadPair));
        assert_eq!(match_idiom(&h, &t, false, true), None);
        let h2 = Inst::Lui {
            rd: Reg::A0,
            imm20: 1,
        };
        let t2 = Inst::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(match_idiom(&h2, &t2, true, false), None);
        assert_eq!(match_idiom(&h2, &t2, true, true), Some(Idiom::LuiAddi));
    }

    #[test]
    fn memory_pair_classification() {
        assert!(Idiom::LoadPair.is_memory_pair());
        assert!(Idiom::StorePair.is_memory_pair());
        assert!(!Idiom::LuiAddi.is_memory_pair());
        assert!(!Idiom::IndexedLoad.is_memory_pair());
        assert_eq!(ALL_IDIOMS.iter().filter(|i| i.is_memory_pair()).count(), 2);
    }
}
