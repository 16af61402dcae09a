//! The lane tape: a flat SSA instruction stream over 64-lane words.
//!
//! Every value in the lane engine is a [`LaneWord`] — one `u64` per
//! lane, where lane 0 is the reference machine and lanes 1..=63 carry
//! mutants. An instruction's destination is its own index in the tape
//! (pure SSA), so evaluation is a single forward sweep with no register
//! allocation. Per-lane divergence introduced by mutants is expressed
//! with [`Instr::MaskSel`] (compile-time lane mask) and control-flow
//! divergence with [`Instr::Sel`] (runtime per-lane predicate); there is
//! no per-lane branching anywhere in the executor.
//!
//! The tape is the hand-off between the two stages of the lane
//! pipeline: [`super::compile`] emits it and [`super::exec`] lowers it,
//! as is, for the lane executor, which is the only thing that runs it.
//! Each instruction means what [`musa_hdl::Bits`] computes on every
//! lane's value; the lowering's tests check that per lane.

use super::exec::TILE;
use musa_hdl::ast::{BinOp, ReduceOp, ShiftOp};

/// Number of lanes per word array: the reference plus up to 63 mutants.
pub(crate) const LANES: usize = 64;

/// One simulator value across all lanes.
pub(crate) type LaneWord = [u64; LANES];

/// Index of an instruction's result (SSA: instruction `i` defines reg `i`).
pub(crate) type Reg = u32;

/// A lane-tape instruction. The destination register is implicit (the
/// instruction's index); `width` fields carry the result width so the
/// executor can uphold the [`Bits`] masking invariant on raw words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Read a symbol's current lanes from persistent state.
    Load { sym: u32 },
    /// Broadcast a constant (already masked) to every lane.
    Const { value: u64 },
    /// Compile-time lane select: lanes in `mask` take `a`, others `b`.
    /// This is the mutation-site primitive.
    MaskSel { mask: u64, a: Reg, b: Reg },
    /// Runtime per-lane select on a width-1 predicate.
    Sel { cond: Reg, a: Reg, b: Reg },
    /// Bitwise complement, masked to `width`.
    Not { a: Reg, width: u32 },
    /// A binary operator, exactly as [`Bits`] computes it per lane.
    Bin { op: BinOp, a: Reg, b: Reg, width: u32 },
    /// OR/AND/XOR reduction of an operand of width `width`.
    Reduce { op: ReduceOp, a: Reg, width: u32 },
    /// Constant-amount shift within `width`.
    Shift { op: ShiftOp, a: Reg, amount: u32, width: u32 },
    /// Constant slice `[hi:lo]`.
    Slice { a: Reg, hi: u32, lo: u32 },
    /// Concatenation: `a` is the high part, `b` the `rhs_width`-bit low.
    Concat { a: Reg, b: Reg, rhs_width: u32 },
    /// Dynamic single-bit read `base[index]` (out of range reads 0).
    DynGet { base: Reg, index: Reg, width: u32 },
    /// Dynamic single-bit write (out of range writes are dropped).
    DynSet { cur: Reg, index: Reg, bit: Reg, width: u32 },
    /// Constant-slice write `cur[hi:lo] <= v`.
    WithSlice { cur: Reg, v: Reg, hi: u32, lo: u32 },
}

impl Instr {
    /// Visits every operand register of the instruction, in field order.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(Reg)) {
        match *self {
            Instr::Load { .. } | Instr::Const { .. } => {}
            Instr::Not { a, .. }
            | Instr::Reduce { a, .. }
            | Instr::Shift { a, .. }
            | Instr::Slice { a, .. } => f(a),
            Instr::MaskSel { a, b, .. } | Instr::Bin { a, b, .. } | Instr::Concat { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::Sel { cond, a, b } => {
                f(cond);
                f(a);
                f(b);
            }
            Instr::DynGet { base, index, .. } => {
                f(base);
                f(index);
            }
            Instr::DynSet { cur, index, bit, .. } => {
                f(cur);
                f(index);
                f(bit);
            }
            Instr::WithSlice { cur, v, .. } => {
                f(cur);
                f(v);
            }
        }
    }
}

/// A compiled tape: the instruction stream plus the write-back list
/// committing results to persistent symbol state after the sweep.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    /// The SSA instruction stream.
    pub instrs: Vec<Instr>,
    /// `(symbol, reg)` pairs stored to state after the sweep; for the
    /// clock-edge tape this is the register commit (non-blocking).
    pub stores: Vec<(u32, Reg)>,
}

/// The lane virtual machine: persistent per-symbol lane state plus a
/// scratch register file sized to the longest tape.
///
/// One VM serves every group a worker runs in one
/// [`super::LanePlan::first_kills`] call: [`LaneVm::fit`] sizes it for
/// each group and [`LaneVm::reset`] powers it on, so nothing is
/// allocated per group run once the files are as large as the widest
/// group's.
#[derive(Debug, Default)]
pub(crate) struct LaneVm {
    /// Per-symbol lanes, indexed by `SymbolId`.
    pub state: Vec<LaneWord>,
    /// Lane scratch registers, driven by `super::exec`, tile-major:
    /// register `r` of the `TILE`-lane tile `t` is
    /// `regs[t * scratch + r]`, so one tile's sweep reads and writes
    /// one contiguous block rather than a slice of every lane word.
    pub(crate) regs: Vec<[u64; TILE]>,
    /// Lane scratch registers per tile: the stride of `regs`.
    pub(crate) scratch: usize,
    /// Scalar scratch registers for the uniform prefix.
    pub(crate) sregs: Vec<u64>,
}

impl LaneVm {
    /// Fits the register files to a unit that needs `scratch` lane
    /// registers per tile and `scratch_scalar` scalar ones: each file
    /// grows when it is too small, and `scratch` becomes the stride.
    ///
    /// Nothing is zeroed. Every scratch register is written before it
    /// is read within a sweep, and the pool registers are written by
    /// `seed_consts`, which the caller runs after every `fit`: the pool
    /// of an earlier unit sits at its own stride.
    pub fn fit(&mut self, scratch: usize, scratch_scalar: usize) {
        let lane_regs = scratch * (LANES / TILE);
        if self.regs.len() < lane_regs {
            self.regs.resize(lane_regs, [0; TILE]);
        }
        if self.sregs.len() < scratch_scalar {
            self.sregs.resize(scratch_scalar, 0);
        }
        self.scratch = scratch;
    }

    /// Resets the persistent state to the power-on lanes: `base` for
    /// every symbol, then `value` in lane `lane` of symbol `sym` for
    /// each `(sym, lane, value)` of `lanes`.
    pub fn reset(&mut self, base: &[LaneWord], lanes: &[(u32, u32, u64)]) {
        self.state.clear();
        self.state.extend_from_slice(base);
        for &(sym, lane, value) in lanes {
            self.state[sym as usize][lane as usize] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::exec::tests::run_lowered;
    use musa_hdl::Bits;

    fn run_one(instrs: Vec<Instr>, stores: Vec<(u32, Reg)>, init: &[LaneWord]) -> LaneVm {
        run_lowered(&Tape { instrs, stores }, init)
    }

    #[test]
    fn mask_sel_routes_lanes() {
        let vm = run_one(
            vec![
                Instr::Const { value: 1 },
                Instr::Const { value: 0 },
                Instr::MaskSel { mask: 0b1010, a: 0, b: 1 },
            ],
            vec![(0, 2)],
            &[[9u64; LANES]],
        );
        for lane in 0..LANES {
            assert_eq!(vm.state[0][lane], (0b1010 >> lane) & 1, "lane {lane}");
        }
    }

    #[test]
    fn arithmetic_masks_to_width() {
        // 15 + 1 in 4 bits wraps to 0, per lane.
        let vm = run_one(
            vec![
                Instr::Const { value: 15 },
                Instr::Const { value: 1 },
                Instr::Bin { op: BinOp::Add, a: 0, b: 1, width: 4 },
            ],
            vec![(0, 2)],
            &[[0u64; LANES]],
        );
        let expected = Bits::new(4, 15).add(Bits::new(4, 1)).raw();
        assert!(vm.state[0].iter().all(|&v| v == expected));
    }

    #[test]
    fn dyn_ops_match_bits_semantics() {
        let mut base = [0u64; LANES];
        let mut index = [0u64; LANES];
        base[0] = 0b1010;
        index[0] = 1;
        base[1] = 0b1010;
        index[1] = 7; // out of range for width 4 -> 0
        let vm = run_one(
            vec![
                Instr::Load { sym: 0 },
                Instr::Load { sym: 1 },
                Instr::DynGet { base: 0, index: 1, width: 4 },
            ],
            vec![(0, 2)],
            &[base, index],
        );
        assert_eq!(vm.state[0][0], u64::from(Bits::new(4, 0b1010).bit(1)));
        assert_eq!(vm.state[0][1], 0);
    }
}
