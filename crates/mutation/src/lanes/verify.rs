//! Structural verification of compiled lane tapes.
//!
//! [`verify_tape`] checks the invariants the [`super::tape::LaneVm`]
//! executor silently relies on — SSA operand-before-use, symbol indices
//! in range, well-formed slices, and mutation masks that never touch
//! the reference lane — and panics with a precise message when a
//! compile bug violates one. It runs on the compiler's tapes after
//! every group compile under `debug_assertions`, so release sweeps pay
//! nothing. [`verify_exec`] applies the matching rules to the lowered
//! executor stream, and [`verify_unit`] checks that the lowering emits
//! one op per instruction.

use super::exec::{ExecOp, ExecTape, ExecUnit};
use super::tape::{Instr, Reg, Tape};

/// Panics unless the tape upholds every structural invariant.
///
/// * the destination of instruction `i` is register `i` (pure SSA), so
///   every operand must reference a register `< i`;
/// * `Load`/store symbols must index into the `n_symbols`-entry state;
/// * slices must have `hi >= lo` (the executor computes `hi - lo + 1`);
/// * `MaskSel` masks must select at least one lane and never lane 0 —
///   lane 0 is the reference machine and no mutation may divert it.
pub(crate) fn verify_tape(tape: &Tape, n_symbols: usize) {
    let check_reg = |r: Reg, i: usize, role: &str| {
        assert!(
            (r as usize) < i,
            "tape instr {i} uses {role} register r{r} not defined before it"
        );
    };
    for (i, instr) in tape.instrs.iter().enumerate() {
        match *instr {
            Instr::Load { sym } => {
                assert!(
                    (sym as usize) < n_symbols,
                    "tape instr {i} loads symbol {sym} out of range (state has {n_symbols})"
                );
            }
            Instr::Const { .. } => {}
            Instr::MaskSel { mask, a, b } => {
                check_reg(a, i, "mask-sel a");
                check_reg(b, i, "mask-sel b");
                assert!(mask != 0, "tape instr {i} has an empty mutation mask");
                assert!(
                    mask & 1 == 0,
                    "tape instr {i} mutation mask selects reference lane 0"
                );
            }
            Instr::Sel { cond, a, b } => {
                check_reg(cond, i, "sel cond");
                check_reg(a, i, "sel a");
                check_reg(b, i, "sel b");
            }
            Instr::Not { a, .. } | Instr::Reduce { a, .. } | Instr::Shift { a, .. } => {
                check_reg(a, i, "unary");
            }
            Instr::Bin { a, b, .. } => {
                check_reg(a, i, "bin lhs");
                check_reg(b, i, "bin rhs");
            }
            Instr::Slice { a, hi, lo } => {
                check_reg(a, i, "slice");
                assert!(hi >= lo, "tape instr {i} slices [{hi}:{lo}] with hi < lo");
            }
            Instr::Concat { a, b, .. } => {
                check_reg(a, i, "concat high");
                check_reg(b, i, "concat low");
            }
            Instr::DynGet { base, index, .. } => {
                check_reg(base, i, "dyn-get base");
                check_reg(index, i, "dyn-get index");
            }
            Instr::DynSet {
                cur, index, bit, ..
            } => {
                check_reg(cur, i, "dyn-set cur");
                check_reg(index, i, "dyn-set index");
                check_reg(bit, i, "dyn-set bit");
            }
            Instr::WithSlice { cur, v, hi, lo } => {
                check_reg(cur, i, "with-slice cur");
                check_reg(v, i, "with-slice value");
                assert!(
                    hi >= lo,
                    "tape instr {i} writes slice [{hi}:{lo}] with hi < lo"
                );
            }
        }
    }
    for &(sym, reg) in &tape.stores {
        assert!(
            (sym as usize) < n_symbols,
            "tape stores to symbol {sym} out of range (state has {n_symbols})"
        );
        assert!(
            (reg as usize) < tape.instrs.len(),
            "tape stores from register r{reg} past the end of the stream"
        );
    }
}

/// Panics unless `unit`, lowered from `tape`, upholds the executor's
/// invariants: both streams pass [`verify_exec`], the scalar prefix
/// contains no lane-only op (`MaskSel` is divergent by definition,
/// `Splat` feeds the lane stream), and the lowering is op for op —
/// every non-`Const` instruction of `tape` became exactly one op,
/// `Splat`s aside.
pub(crate) fn verify_unit(
    unit: &ExecUnit,
    tape: &Tape,
    n_symbols: usize,
    n_consts: usize,
    n_scalar: usize,
) {
    verify_exec(&unit.pre, n_symbols, n_consts, 0);
    for (i, op) in unit.pre.ops.iter().enumerate() {
        assert!(
            !matches!(op, ExecOp::MaskSel { .. } | ExecOp::Splat { .. }),
            "scalar-prefix op {i} is lane-only: {op:?}"
        );
    }
    verify_exec(&unit.main, n_symbols, n_consts, n_scalar);
    let instrs = tape.instrs.iter().filter(|i| !matches!(i, Instr::Const { .. })).count();
    let ops = unit.pre.ops.iter().chain(&unit.main.ops);
    let ops = ops.filter(|op| !matches!(op, ExecOp::Splat { .. })).count();
    assert!(
        ops == instrs,
        "lowering is op-for-op: {instrs} non-constant instructions, {ops} ops"
    );
}

/// Panics unless a lowered tape upholds the executor's invariants.
///
/// * destinations are strictly increasing and never overwrite the
///   constant pool (`run_exec` splits the register file at `dst`, so
///   every operand must reference a strictly lower register);
/// * every operand is either a pool register or a prior destination;
/// * `Load` and store symbols index into state;
/// * `Splat` sources stay inside the `n_scalar`-register scalar file;
/// * every `MaskSel` mask selects at least one lane and never the
///   reference lane.
pub(crate) fn verify_exec(tape: &ExecTape, n_symbols: usize, n_consts: usize, n_scalar: usize) {
    let mut defined: Vec<bool> = vec![true; n_consts];
    let mut prev: Option<Reg> = None;
    for (i, op) in tape.ops.iter().enumerate() {
        let dst = op.dst();
        assert!(
            (dst as usize) >= n_consts,
            "exec op {i} writes r{dst} inside the {n_consts}-register constant pool"
        );
        if let Some(prev) = prev {
            assert!(dst > prev, "exec op {i} destination r{dst} not above r{prev}");
        }
        prev = Some(dst);
        let check_reg = |r: Reg, role: &str| {
            assert!(r < dst, "exec op {i} reads {role} r{r} at or above its dst r{dst}");
            assert!(
                defined.get(r as usize).copied().unwrap_or(false),
                "exec op {i} reads {role} r{r} that no prior op defines"
            );
        };
        let check_sym = |sym: u32, role: &str| {
            assert!(
                (sym as usize) < n_symbols,
                "exec op {i} {role} symbol {sym} out of range (state has {n_symbols})"
            );
        };
        match *op {
            ExecOp::Load { sym, .. } => check_sym(sym, "loads"),
            ExecOp::MaskSel { mask, a, b, .. } => {
                check_reg(a, "mask-sel a");
                check_reg(b, "mask-sel b");
                assert!(mask != 0, "exec op {i} has an empty mutation mask");
                assert!(mask & 1 == 0, "exec op {i} mutation mask selects reference lane 0");
            }
            ExecOp::Sel { cond, a, b, .. } => {
                check_reg(cond, "sel cond");
                check_reg(a, "sel a");
                check_reg(b, "sel b");
            }
            ExecOp::Not { a, .. }
            | ExecOp::Reduce { a, .. }
            | ExecOp::Shift { a, .. }
            | ExecOp::Slice { a, .. } => check_reg(a, "unary"),
            ExecOp::Bin { a, b, .. } | ExecOp::Concat { a, b, .. } => {
                check_reg(a, "lhs");
                check_reg(b, "rhs");
            }
            ExecOp::DynGet { base, index, .. } => {
                check_reg(base, "dyn-get base");
                check_reg(index, "dyn-get index");
            }
            ExecOp::DynSet { cur, index, bit, .. } => {
                check_reg(cur, "dyn-set cur");
                check_reg(index, "dyn-set index");
                check_reg(bit, "dyn-set bit");
            }
            ExecOp::WithSlice { cur, v, .. } => {
                check_reg(cur, "with-slice cur");
                check_reg(v, "with-slice value");
            }
            ExecOp::Splat { src, .. } => {
                assert!(
                    (src as usize) < n_scalar,
                    "exec op {i} splats scalar r{src} outside the {n_scalar}-register scalar file"
                );
            }
        }
        if defined.len() <= dst as usize {
            defined.resize(dst as usize + 1, false);
        }
        defined[dst as usize] = true;
    }
    for &(sym, reg) in &tape.stores {
        assert!(
            (sym as usize) < n_symbols,
            "exec tape stores to symbol {sym} out of range (state has {n_symbols})"
        );
        assert!(
            defined.get(reg as usize).copied().unwrap_or(false),
            "exec tape stores from undefined register r{reg}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::ast::BinOp;

    fn valid_tape() -> Tape {
        Tape {
            instrs: vec![
                Instr::Load { sym: 0 },
                Instr::Const { value: 1 },
                Instr::Bin {
                    op: BinOp::Add,
                    a: 0,
                    b: 1,
                    width: 4,
                },
                Instr::MaskSel { mask: 0b10, a: 1, b: 2 },
            ],
            stores: vec![(0, 3)],
        }
    }

    #[test]
    fn valid_tape_passes() {
        verify_tape(&valid_tape(), 1);
    }

    #[test]
    #[should_panic(expected = "not defined before it")]
    fn forward_operand_reference_panics() {
        let mut tape = valid_tape();
        tape.instrs[2] = Instr::Bin {
            op: BinOp::Add,
            a: 0,
            b: 2, // self-reference: defined *at* index 2, not before
            width: 4,
        };
        verify_tape(&tape, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_of_unknown_symbol_panics() {
        let mut tape = valid_tape();
        tape.instrs[0] = Instr::Load { sym: 5 };
        verify_tape(&tape, 1);
    }

    #[test]
    #[should_panic(expected = "reference lane 0")]
    fn mask_touching_lane_zero_panics() {
        let mut tape = valid_tape();
        tape.instrs[3] = Instr::MaskSel { mask: 0b11, a: 1, b: 2 };
        verify_tape(&tape, 1);
    }

    #[test]
    #[should_panic(expected = "empty mutation mask")]
    fn empty_mask_panics() {
        let mut tape = valid_tape();
        tape.instrs[3] = Instr::MaskSel { mask: 0, a: 1, b: 2 };
        verify_tape(&tape, 1);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn store_from_missing_register_panics() {
        let mut tape = valid_tape();
        tape.stores = vec![(0, 9)];
        verify_tape(&tape, 1);
    }

    fn valid_exec() -> ExecTape {
        ExecTape {
            ops: vec![
                ExecOp::Load { dst: 1, sym: 0 },
                ExecOp::MaskSel { dst: 2, mask: 0b10, a: 0, b: 1 },
            ],
            stores: vec![(0, 2)],
        }
    }

    #[test]
    fn valid_exec_tape_passes() {
        // One pooled constant at r0, two emitted ops above it.
        verify_exec(&valid_exec(), 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "constant pool")]
    fn exec_dst_inside_the_pool_panics() {
        let mut tape = valid_exec();
        tape.ops[0] = ExecOp::Load { dst: 0, sym: 0 };
        verify_exec(&tape, 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "no prior op defines")]
    fn exec_operand_of_undefined_register_panics() {
        let mut tape = valid_exec();
        // r1 is skipped: the MaskSel reads a hole in the register file.
        tape.ops.remove(0);
        verify_exec(&tape, 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "reference lane 0")]
    fn exec_mask_touching_lane_zero_panics() {
        let mut tape = valid_exec();
        tape.ops[1] = ExecOp::MaskSel { dst: 2, mask: 0b11, a: 0, b: 1 };
        verify_exec(&tape, 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "lowering is op-for-op")]
    fn unit_missing_an_op_panics() {
        // `valid_tape` lowers to Load, Bin and MaskSel over the pooled
        // constant r0; here the MaskSel is dropped.
        let unit = ExecUnit {
            pre: ExecTape::default(),
            main: ExecTape {
                ops: vec![
                    ExecOp::Load { dst: 1, sym: 0 },
                    ExecOp::Bin { dst: 2, op: BinOp::Add, a: 1, b: 0, m: 0xf },
                ],
                stores: vec![(0, 2)],
            },
        };
        verify_unit(&unit, &valid_tape(), 1, 1, 0);
    }
}
