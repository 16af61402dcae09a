//! The lane executor: SSA tapes lowered to an explicit-destination op
//! stream, one op per instruction.
//!
//! Second stage of the compile → lower/execute pipeline, and the only
//! way a compiled group runs: the compiler's tapes come here as they
//! are. Lowering turns a [`Tape`] into an [`ExecTape`] whose ops carry
//! their destination register and precomputed width masks; it
//! additionally:
//!
//! * **pools constants** — `Const` broadcasts are materialized once per
//!   group simulation (they are loop-invariant across every sweep), so
//!   the per-step loop never touches them again;
//! * **splits off a scalar prefix** — values no mutation site can
//!   influence evaluate once on `u64`s, and `Splat`s carry the ones the
//!   lane stream reads into lane words.
//!
//! Every other instruction lowers to exactly one [`ExecOp`].

use super::lanes_of;
use super::tape::{Instr, LaneVm, Reg, Tape, LANES};
use musa_hdl::ast::{BinOp, ReduceOp, ShiftOp};
use musa_hdl::Bits;
use std::collections::BTreeMap;

/// One lowered instruction. `m` fields are precomputed width masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExecOp {
    /// Read a symbol's lanes from persistent state.
    Load { dst: Reg, sym: u32 },
    /// Compile-time lane select (the mutation-site primitive).
    MaskSel { dst: Reg, mask: u64, a: Reg, b: Reg },
    /// Runtime per-lane select on a width-1 predicate.
    Sel { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// Bitwise complement under mask `m`.
    Not { dst: Reg, a: Reg, m: u64 },
    /// A binary operator, exactly as [`Bits`] computes it per lane.
    Bin { dst: Reg, op: BinOp, a: Reg, b: Reg, m: u64 },
    /// OR/AND/XOR reduction of an operand masked by `m`.
    Reduce { dst: Reg, op: ReduceOp, a: Reg, m: u64 },
    /// Constant-amount shift; `live == false` means the amount exceeds
    /// the width and the result is all-zero.
    Shift { dst: Reg, op: ShiftOp, a: Reg, amount: u32, live: bool, m: u64 },
    /// Constant slice: `(x >> lo) & m`.
    Slice { dst: Reg, a: Reg, lo: u32, m: u64 },
    /// Concatenation: `a` high, `b` the `rhs_width`-bit low part.
    Concat { dst: Reg, a: Reg, b: Reg, rhs_width: u32 },
    /// Dynamic single-bit read (out of range reads 0).
    DynGet { dst: Reg, base: Reg, index: Reg, width: u32 },
    /// Dynamic single-bit write (out of range writes are dropped).
    DynSet { dst: Reg, cur: Reg, index: Reg, bit: Reg, width: u32 },
    /// Constant-slice write: `field` is the positioned slice mask.
    WithSlice { dst: Reg, cur: Reg, v: Reg, lo: u32, field: u64 },
    /// Broadcast scalar register `src` into a lane word: the bridge
    /// from the scalar prefix into the lane stream. Emitted at the head
    /// of a lane tape, once per uniform value divergent ops consume.
    Splat { dst: Reg, src: Reg },
}

impl ExecOp {
    /// The destination register.
    pub(crate) fn dst(&self) -> Reg {
        match *self {
            ExecOp::Load { dst, .. }
            | ExecOp::MaskSel { dst, .. }
            | ExecOp::Sel { dst, .. }
            | ExecOp::Not { dst, .. }
            | ExecOp::Bin { dst, .. }
            | ExecOp::Reduce { dst, .. }
            | ExecOp::Shift { dst, .. }
            | ExecOp::Slice { dst, .. }
            | ExecOp::Concat { dst, .. }
            | ExecOp::DynGet { dst, .. }
            | ExecOp::DynSet { dst, .. }
            | ExecOp::WithSlice { dst, .. }
            | ExecOp::Splat { dst, .. } => dst,
        }
    }
}

/// A lowered, executable tape.
#[derive(Debug, Default, Clone)]
pub(crate) struct ExecTape {
    /// Ops in evaluation order; destinations are strictly increasing.
    pub ops: Vec<ExecOp>,
    /// `(symbol, reg)` write-backs committed after the sweep.
    pub stores: Vec<(u32, Reg)>,
}

impl ExecTape {
    /// Rewrites every `MaskSel` mask from `src`, the same stream as
    /// compiled, for a group whose lanes have moved into positions
    /// `0..=live`: bit `p` of the new mask is bit `slot[p]` of the
    /// compiled one, where `slot[p]` is the compiled lane now at
    /// position `p`. Positions past `live` are never read again, so
    /// their bits stay clear and the rewrite costs `live + 1` bits per
    /// mask, not 64.
    pub(crate) fn remap_masks(&mut self, src: &ExecTape, slot: &[u8; LANES], live: usize) {
        for (op, compiled) in self.ops.iter_mut().zip(&src.ops) {
            if let (ExecOp::MaskSel { mask, .. }, ExecOp::MaskSel { mask: from, .. }) =
                (op, compiled)
            {
                *mask = (0..=live).fold(0, |m, p| m | (((from >> slot[p]) & 1) << p));
            }
        }
    }
}

/// One sweep's executable form: the uniform scalar prefix plus the
/// lane-divergent stream.
///
/// Values no mutation site can influence — everything upstream of every
/// `MaskSel` in the group — are lane-identical by construction, so they
/// evaluate **once** on scalar `u64`s instead of 64-lane words. Only
/// the divergent remainder pays for lane words; `Splat` ops at the head
/// of `main` broadcast the scalar values the lane ops consume.
#[derive(Debug, Default)]
pub(crate) struct ExecUnit {
    /// Uniform ops, evaluated on the scalar register file.
    pub pre: ExecTape,
    /// Lane-divergent ops (and boundary `Splat`s).
    pub main: ExecTape,
}

/// The lowered unit: both tapes plus the shared constant pool.
#[derive(Debug)]
pub(crate) struct Lowered {
    /// The combinational settle (runs on reset, after inputs, after edge).
    pub comb: ExecUnit,
    /// The clock edge: next-state computation plus register commit.
    pub edge: ExecUnit,
    /// Constant pool: register `j` holds `consts[j]`, seeded once per
    /// group run into both the lane and the scalar register files.
    pub consts: Vec<u64>,
    /// Lane scratch registers the VM needs (pool + widest lane stream).
    pub scratch: usize,
    /// Scalar scratch registers (pool + widest scalar prefix).
    pub scratch_scalar: usize,
}

/// Per-instruction lane-divergence flags for a tape pair.
///
/// An instruction is *divergent* when its value can differ across
/// lanes: every `MaskSel` (the mutation site itself), anything reading
/// a divergent register, and any `Load` of a symbol that ever holds
/// divergent state. Symbol divergence is a fixpoint across both tapes
/// (a comb store feeding an edge load and back), seeded by initial
/// state whose lanes already differ (`div_sym`). Everything else is
/// *uniform* — lane-identical on every sweep — and lowers to the
/// scalar prefix.
fn divergence(comb: &Tape, edge: &Tape, mut div_sym: Vec<bool>) -> (Vec<bool>, Vec<bool>) {
    let mut dc = vec![false; comb.instrs.len()];
    let mut de = vec![false; edge.instrs.len()];
    loop {
        let mut changed = false;
        for (tape, flags) in [(comb, &mut dc), (edge, &mut de)] {
            for (i, instr) in tape.instrs.iter().enumerate() {
                if flags[i] {
                    continue;
                }
                let d = match *instr {
                    Instr::MaskSel { .. } => true,
                    Instr::Load { sym } => div_sym[sym as usize],
                    _ => {
                        let mut any = false;
                        instr.for_each_operand(|r| any |= flags[r as usize]);
                        any
                    }
                };
                if d {
                    flags[i] = true;
                    changed = true;
                }
            }
            for &(sym, reg) in &tape.stores {
                if flags[reg as usize] && !div_sym[sym as usize] {
                    div_sym[sym as usize] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (dc, de)
}

/// Lowers a compiled tape pair for execution. `diverges` seeds the
/// divergence analysis, one flag per symbol: a symbol whose power-on
/// lanes already differ (mutated power-on state) taints its loads.
pub(crate) fn lower_unit(comb: &Tape, edge: &Tape, diverges: Vec<bool>) -> Lowered {
    // Shared pool over both tapes, ordered by first appearance.
    let mut pool: BTreeMap<u64, Reg> = BTreeMap::new();
    let mut consts = Vec::new();
    for tape in [comb, edge] {
        for instr in &tape.instrs {
            if let Instr::Const { value } = *instr {
                pool.entry(value).or_insert_with(|| {
                    consts.push(value);
                    (consts.len() - 1) as Reg
                });
            }
        }
    }
    let first = consts.len() as Reg;
    let (dc, de) = divergence(comb, edge, diverges);
    let comb = lower(comb, &pool, first, &dc);
    let edge = lower(edge, &pool, first, &de);
    let scalar = comb.pre.ops.len() + edge.pre.ops.len();
    if scalar > 0 {
        musa_trace::count("lane_scalar_ops", scalar as u64);
    }
    let widest = |t: &ExecTape| t.ops.last().map(|op| op.dst() + 1);
    let lane_w = widest(&comb.main).max(widest(&edge.main)).unwrap_or(first);
    let scalar_w = widest(&comb.pre).max(widest(&edge.pre)).unwrap_or(first);
    Lowered {
        comb,
        edge,
        consts,
        scratch: lane_w.max(first) as usize,
        scratch_scalar: scalar_w.max(first) as usize,
    }
}

/// Lowers one non-`Const` instruction (constants resolve into the
/// pool), mapping operands through `res`.
fn lower_op(instr: &Instr, dst: Reg, res: impl Fn(Reg) -> Reg) -> ExecOp {
    match *instr {
        Instr::Load { sym } => ExecOp::Load { dst, sym },
        Instr::Const { .. } => unreachable!("constants resolve into the pool"),
        Instr::MaskSel { mask, a, b } => ExecOp::MaskSel { dst, mask, a: res(a), b: res(b) },
        Instr::Sel { cond, a, b } => {
            ExecOp::Sel { dst, cond: res(cond), a: res(a), b: res(b) }
        }
        Instr::Not { a, width } => ExecOp::Not { dst, a: res(a), m: Bits::mask_of(width) },
        Instr::Bin { op, a, b, width } => {
            ExecOp::Bin { dst, op, a: res(a), b: res(b), m: Bits::mask_of(width) }
        }
        Instr::Reduce { op, a, width } => {
            ExecOp::Reduce { dst, op, a: res(a), m: Bits::mask_of(width) }
        }
        Instr::Shift { op, a, amount, width } => ExecOp::Shift {
            dst,
            op,
            a: res(a),
            amount,
            live: amount < width,
            m: Bits::mask_of(width),
        },
        Instr::Slice { a, hi, lo } => {
            ExecOp::Slice { dst, a: res(a), lo, m: Bits::mask_of(hi - lo + 1) }
        }
        Instr::Concat { a, b, rhs_width } => {
            ExecOp::Concat { dst, a: res(a), b: res(b), rhs_width }
        }
        Instr::DynGet { base, index, width } => {
            ExecOp::DynGet { dst, base: res(base), index: res(index), width }
        }
        Instr::DynSet { cur, index, bit, width } => ExecOp::DynSet {
            dst,
            cur: res(cur),
            index: res(index),
            bit: res(bit),
            width,
        },
        Instr::WithSlice { cur, v, hi, lo } => ExecOp::WithSlice {
            dst,
            cur: res(cur),
            v: res(v),
            lo,
            field: Bits::mask_of(hi - lo + 1) << lo,
        },
    }
}

/// Lowers one tape: constants resolve into the pool, uniform
/// instructions lower to the scalar prefix and divergent ones to the
/// lane stream, one op each, with dense destinations starting at
/// `first` in their respective register file.
fn lower(tape: &Tape, pool: &BTreeMap<u64, Reg>, first: Reg, div: &[bool]) -> ExecUnit {
    let n = tape.instrs.len();
    // `map_s[i]`/`map_l[i]` are instruction i's scalar / lane register;
    // pooled constants keep their pool slot in both files.
    let mut map_s: Vec<Option<Reg>> = vec![None; n];
    let mut map_l: Vec<Option<Reg>> = vec![None; n];
    for (i, instr) in tape.instrs.iter().enumerate() {
        if let Instr::Const { value } = *instr {
            let r = pool[&value];
            map_s[i] = Some(r);
            map_l[i] = Some(r);
        }
    }

    // The scalar prefix: every uniform op.
    let mut pre_ops = Vec::new();
    let mut next_s = first;
    for (i, instr) in tape.instrs.iter().enumerate() {
        if div[i] || matches!(instr, Instr::Const { .. }) {
            continue;
        }
        let res = |r: Reg| map_s[r as usize].expect("uniform operand lowered before use");
        pre_ops.push(lower_op(instr, next_s, res));
        map_s[i] = Some(next_s);
        next_s += 1;
    }

    // One Splat at the head of the lane stream for every uniform value
    // a divergent op reads.
    let mut needs_splat = vec![false; n];
    for (i, instr) in tape.instrs.iter().enumerate() {
        if div[i] {
            instr.for_each_operand(|r| {
                if !div[r as usize] && map_l[r as usize].is_none() {
                    needs_splat[r as usize] = true;
                }
            });
        }
    }
    let mut ops = Vec::with_capacity(n);
    let mut next = first;
    for (i, splat) in needs_splat.iter().enumerate() {
        if *splat {
            let src = map_s[i].expect("splat source is a lowered uniform op");
            ops.push(ExecOp::Splat { dst: next, src });
            map_l[i] = Some(next);
            next += 1;
        }
    }

    // The divergent lane stream.
    for (i, instr) in tape.instrs.iter().enumerate() {
        if !div[i] {
            continue;
        }
        let res = |r: Reg| map_l[r as usize].expect("SSA operand lowered before use");
        ops.push(lower_op(instr, next, res));
        map_l[i] = Some(next);
        next += 1;
    }

    // Stores split by the divergence of their source: uniform stores
    // commit from the scalar file (as a broadcast), divergent ones from
    // the lane file.
    let mut pre_stores = Vec::new();
    let mut stores = Vec::new();
    for &(sym, reg) in &tape.stores {
        if div[reg as usize] {
            stores.push((sym, map_l[reg as usize].expect("stored reg survives lowering")));
        } else {
            pre_stores.push((sym, map_s[reg as usize].expect("stored reg survives lowering")));
        }
    }
    ExecUnit {
        pre: ExecTape { ops: pre_ops, stores: pre_stores },
        main: ExecTape { ops, stores },
    }
}

/// Per-lane binary-operator evaluation, identical to the scalar
/// [`Bits`] semantics.
#[inline(always)]
fn bin(op: BinOp, a: u64, b: u64, m: u64) -> u64 {
    match op {
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Nand => !(a & b) & m,
        BinOp::Nor => !(a | b) & m,
        BinOp::Xnor => !(a ^ b) & m,
        BinOp::Add => a.wrapping_add(b) & m,
        BinOp::Sub => a.wrapping_sub(b) & m,
        BinOp::Mul => a.wrapping_mul(b) & m,
        BinOp::Eq => u64::from(a == b),
        BinOp::Ne => u64::from(a != b),
        BinOp::Lt => u64::from(a < b),
        BinOp::Le => u64::from(a <= b),
        BinOp::Gt => u64::from(a > b),
        BinOp::Ge => u64::from(a >= b),
    }
}

#[inline(always)]
fn reduce(op: ReduceOp, x: u64, m: u64) -> u64 {
    match op {
        ReduceOp::Or => u64::from(x != 0),
        ReduceOp::And => u64::from(x == m),
        ReduceOp::Xor => u64::from(x.count_ones() % 2 == 1),
    }
}

/// Per-lane constant-amount shift of a live `Shift` (amount below the
/// width).
#[inline(always)]
fn shift(op: ShiftOp, x: u64, amount: u32, m: u64) -> u64 {
    match op {
        ShiftOp::Left => (x << amount) & m,
        ShiftOp::Right => x >> amount,
    }
}

/// Per-lane dynamic single-bit read: an index at or past `width` reads 0.
#[inline(always)]
fn dyn_get(x: u64, ix: u64, width: u32) -> u64 {
    if ix < u64::from(width) { (x >> ix) & 1 } else { 0 }
}

/// Per-lane dynamic single-bit write: an index at or past `width`
/// leaves `cur` as it is.
#[inline(always)]
fn dyn_set(cur: u64, ix: u64, bit: u64, width: u32) -> u64 {
    if ix < u64::from(width) { (cur & !(1 << ix)) | ((bit & 1) << ix) } else { cur }
}

/// Matches `$op` once and runs `$body` with `$o` bound to the matched
/// variant as a literal, one arm per listed variant: the lane loop in
/// each arm then inlines `bin`/`reduce`/`shift` down to that one
/// operator, so no lane pays a dispatch.
macro_rules! per_operator {
    ($op:expr, $Enum:ident::{$($v:ident),* $(,)?}, |$o:ident| $body:expr) => {
        match $op {
            $($Enum::$v => {
                let $o = $Enum::$v;
                $body
            })*
        }
    };
}

/// `out[l] = f(x[l])` over one tile.
#[inline(always)]
fn map1(out: &mut [u64; TILE], x: &[u64; TILE], f: impl Fn(u64) -> u64) {
    for l in 0..TILE {
        out[l] = f(x[l]);
    }
}

/// `out[l] = f(x[l], y[l])` over one tile.
#[inline(always)]
fn map2(out: &mut [u64; TILE], x: &[u64; TILE], y: &[u64; TILE], f: impl Fn(u64, u64) -> u64) {
    for l in 0..TILE {
        out[l] = f(x[l], y[l]);
    }
}

/// `out[l] = f(x[l], y[l], z[l])` over one tile.
#[inline(always)]
fn map3(
    out: &mut [u64; TILE],
    x: &[u64; TILE],
    y: &[u64; TILE],
    z: &[u64; TILE],
    f: impl Fn(u64, u64, u64) -> u64,
) {
    for l in 0..TILE {
        out[l] = f(x[l], y[l], z[l]);
    }
}

/// Lanes evaluated per executor tile. A full 64-lane register file for
/// a realistic tape overflows L1 (~150 live registers × 512 B ≈ 75 KB),
/// so the executor sweeps the tape once per 16-lane tile, four tiles per
/// lane word. The register file is tile-major ([`LaneVm::regs`]), so a
/// tile's registers are one contiguous block (~150 × 128 B ≈ 19 KB)
/// that stays resident across ops; interleaved with the other tiles'
/// lanes, each 128-byte slice would sit 512 B from the next and they
/// would crowd into a quarter of a 64-set L1's sets. Tiles are disjoint
/// lanes, so per-tile store commits cannot be observed across tiles and
/// results are bit-identical. Narrow tiles pay off with packing: a
/// group's survivors move into the low tiles, and tiles holding no live
/// lane are not swept at all.
pub(crate) const TILE: usize = 16;

/// The lanes of the tile starting at lane 0.
const TILE_MASK: u64 = u64::MAX >> (LANES - TILE);

/// The first lane of each `TILE`-lane tile holding a lane of `lanes`.
pub(crate) fn tiles_of(lanes: u64) -> impl Iterator<Item = usize> {
    (0..LANES)
        .step_by(TILE)
        .filter(move |&lo| (lanes >> lo) & TILE_MASK != 0)
}

/// A `TILE`-lane view into a lane word, starting at lane `lo`.
#[inline(always)]
fn tile(w: &[u64; LANES], lo: usize) -> &[u64; TILE] {
    w[lo..lo + TILE].try_into().expect("tile within lane word")
}

impl LaneVm {
    /// Seeds the constant-pool registers in both files, at the stride
    /// of the last [`LaneVm::fit`] (once per group run — sweeps never
    /// overwrite them, their destinations start above the pool).
    pub(crate) fn seed_consts(&mut self, consts: &[u64]) {
        for (j, &value) in consts.iter().enumerate() {
            for t in 0..LANES / TILE {
                self.regs[t * self.scratch + j] = [value; TILE];
            }
            self.sregs[j] = value;
        }
    }

    /// Evaluates the uniform scalar prefix: plain `u64` sweeps over the
    /// scalar register file (lane 0 of state is every lane of state for
    /// the symbols this stream touches), then broadcast write-backs.
    pub(crate) fn run_scalar(&mut self, tape: &ExecTape) {
        for op in &tape.ops {
            let s = &self.sregs;
            let v = match *op {
                ExecOp::Load { sym, .. } => self.state[sym as usize][0],
                ExecOp::Sel { cond, a, b, .. } => {
                    if s[cond as usize] != 0 { s[a as usize] } else { s[b as usize] }
                }
                ExecOp::Not { a, m, .. } => !s[a as usize] & m,
                ExecOp::Bin { op, a, b, m, .. } => bin(op, s[a as usize], s[b as usize], m),
                ExecOp::Reduce { op, a, m, .. } => reduce(op, s[a as usize], m),
                ExecOp::Shift { op, a, amount, live, m, .. } => {
                    if live { shift(op, s[a as usize], amount, m) } else { 0 }
                }
                ExecOp::Slice { a, lo, m, .. } => (s[a as usize] >> lo) & m,
                ExecOp::Concat { a, b, rhs_width, .. } => {
                    (s[a as usize] << rhs_width) | s[b as usize]
                }
                ExecOp::DynGet { base, index, width, .. } => {
                    dyn_get(s[base as usize], s[index as usize], width)
                }
                ExecOp::DynSet { cur, index, bit, width, .. } => {
                    dyn_set(s[cur as usize], s[index as usize], s[bit as usize], width)
                }
                ExecOp::WithSlice { cur, v, lo, field, .. } => {
                    (s[cur as usize] & !field) | (s[v as usize] << lo)
                }
                // MaskSel is divergent by definition and Splat is
                // lane-stream-only: neither reaches here.
                _ => unreachable!("op never emitted in the scalar prefix"),
            };
            self.sregs[op.dst() as usize] = v;
        }
        for &(sym, reg) in &tape.stores {
            self.state[sym as usize] = [self.sregs[reg as usize]; LANES];
        }
    }

    /// Evaluates a lowered tape over the lanes of `lanes`: one forward
    /// sweep per `TILE`-lane tile holding one of them, writing each op's
    /// destination in place (no lane-word copy), then that tile's
    /// write-backs. Tile 0 always runs: it holds the reference lane 0.
    /// A skipped tile's registers and state keep stale values, which is
    /// sound as long as nothing reads its lanes again. Returns the
    /// number of lanes computed.
    pub(crate) fn run_exec(&mut self, tape: &ExecTape, lanes: u64) -> usize {
        let mut computed = 0;
        for lo in tiles_of(lanes | 1) {
            self.run_exec_tile(tape, lo);
            computed += TILE;
        }
        computed
    }

    /// One tile sweep over lanes `lo..lo + TILE`, on that tile's block
    /// of the register file.
    fn run_exec_tile(&mut self, tape: &ExecTape, lo: usize) {
        let t = lo / TILE;
        let regs = &mut self.regs[t * self.scratch..(t + 1) * self.scratch];
        for op in &tape.ops {
            // Destinations are strictly increasing and operands strictly
            // lower, so splitting the register file at `dst` gives the
            // output slot and the readable prefix without aliasing.
            let (regs, rest) = regs.split_at_mut(op.dst() as usize);
            let out = &mut rest[0];
            match *op {
                ExecOp::Load { sym, .. } => *out = *tile(&self.state[sym as usize], lo),
                ExecOp::Splat { src, .. } => *out = [self.sregs[src as usize]; TILE],
                ExecOp::MaskSel { mask, a, b, .. } => {
                    // A site's mask names a lane or a few: copy `b`'s
                    // tile and overwrite only those lanes from `a`.
                    *out = regs[b as usize];
                    let x = &regs[a as usize];
                    for l in lanes_of((mask >> lo) & TILE_MASK) {
                        out[l] = x[l];
                    }
                }
                ExecOp::Sel { cond, a, b, .. } => {
                    // Branchless per-lane blend: the select vectorizes
                    // instead of branching on the predicate.
                    let (c, x, y) = (&regs[cond as usize], &regs[a as usize], &regs[b as usize]);
                    map3(out, c, x, y, |c, x, y| {
                        y ^ ((x ^ y) & 0u64.wrapping_sub(u64::from(c != 0)))
                    });
                }
                ExecOp::Not { a, m, .. } => map1(out, &regs[a as usize], |x| !x & m),
                ExecOp::Bin { op, a, b, m, .. } => {
                    let (x, y) = (&regs[a as usize], &regs[b as usize]);
                    per_operator!(
                        op,
                        BinOp::{
                            And, Or, Xor, Nand, Nor, Xnor, Add, Sub, Mul, Eq, Ne, Lt, Le, Gt, Ge
                        },
                        |op| map2(out, x, y, |x, y| bin(op, x, y, m))
                    );
                }
                ExecOp::Reduce { op, a, m, .. } => {
                    let x = &regs[a as usize];
                    per_operator!(op, ReduceOp::{Or, And, Xor}, |op| {
                        map1(out, x, |x| reduce(op, x, m))
                    });
                }
                ExecOp::Shift { live: false, .. } => *out = [0u64; TILE],
                ExecOp::Shift { op, a, amount, m, .. } => {
                    let x = &regs[a as usize];
                    per_operator!(op, ShiftOp::{Left, Right}, |op| {
                        map1(out, x, |x| shift(op, x, amount, m))
                    });
                }
                ExecOp::Slice { a, lo: at, m, .. } => {
                    map1(out, &regs[a as usize], |x| (x >> at) & m);
                }
                ExecOp::Concat { a, b, rhs_width, .. } => {
                    map2(out, &regs[a as usize], &regs[b as usize], |x, y| (x << rhs_width) | y);
                }
                ExecOp::DynGet { base, index, width, .. } => {
                    map2(out, &regs[base as usize], &regs[index as usize], |x, ix| {
                        dyn_get(x, ix, width)
                    });
                }
                ExecOp::DynSet { cur, index, bit, width, .. } => {
                    let (c, ix) = (&regs[cur as usize], &regs[index as usize]);
                    map3(out, c, ix, &regs[bit as usize], |c, ix, v| dyn_set(c, ix, v, width));
                }
                ExecOp::WithSlice { cur, v, lo: at, field, .. } => {
                    map2(out, &regs[cur as usize], &regs[v as usize], |c, x| {
                        (c & !field) | (x << at)
                    });
                }
            }
        }
        // Commit this tile's write-backs. Tiles are disjoint lanes, so
        // the next tile's Loads still read their own pre-sweep lanes:
        // every lane sees exactly a whole-word sweep's values.
        for &(sym, reg) in &tape.stores {
            self.state[sym as usize][lo..lo + TILE].copy_from_slice(&regs[reg as usize]);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::lanes::tape::LaneWord;
    use musa_prng::{Prng, SplitMix64};
    use proptest::prelude::*;

    /// Lowers `comb` and runs it once over every lane, as a group's
    /// settle does: the scalar prefix, then the lane stream.
    pub(crate) fn run_lowered(comb: &Tape, init: &[LaneWord]) -> LaneVm {
        run_lowered_over(comb, init, u64::MAX).0
    }

    /// One divergence seed per symbol of `init`: whether its lanes
    /// differ, as a group's CR power-on lanes make them.
    fn diverging(init: &[LaneWord]) -> Vec<bool> {
        init.iter().map(|w| w.iter().any(|&v| v != w[0])).collect()
    }

    /// Lowers `comb` and runs it once over the tiles holding a lane of
    /// `lanes`; returns the VM and the number of lanes computed.
    fn run_lowered_over(comb: &Tape, init: &[LaneWord], lanes: u64) -> (LaneVm, usize) {
        let lowered = lower_unit(comb, &Tape::default(), diverging(init));
        let mut vm = LaneVm::default();
        vm.fit(lowered.scratch, lowered.scratch_scalar);
        vm.reset(init, &[]);
        vm.seed_consts(&lowered.consts);
        vm.run_scalar(&lowered.comb.pre);
        let computed = vm.run_exec(&lowered.comb.main, lanes);
        (vm, computed)
    }

    /// Runs `comb` lowered and checks every lane's stored values against
    /// `expected`, which computes them with [`Bits`] from the lane index
    /// and the lane's initial symbol values.
    fn assert_lanes_follow_bits(
        comb: &Tape,
        init: &[LaneWord],
        expected: impl Fn(usize, &[u64]) -> Vec<u64>,
    ) {
        let vm = run_lowered(comb, init);
        for lane in 0..LANES {
            let inputs: Vec<u64> = init.iter().map(|word| word[lane]).collect();
            let stored: Vec<u64> =
                comb.stores.iter().map(|&(sym, _)| vm.state[sym as usize][lane]).collect();
            assert_eq!(stored, expected(lane, &inputs), "lane {lane}");
        }
    }

    fn ramp(seed: u64) -> LaneWord {
        let mut w = [0u64; LANES];
        let mut x = seed | 1;
        for lane in &mut w {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *lane = (x >> 16) & 0xff;
        }
        w
    }

    #[test]
    fn lowering_matches_bits_semantics_on_bin_masksel_pairs() {
        // The expression-mutation shape: original Bin, mutated Bin,
        // MaskSel routing the mutant lane.
        let comb = Tape {
            instrs: vec![
                Instr::Load { sym: 0 },
                Instr::Load { sym: 1 },
                Instr::Bin { op: BinOp::And, a: 0, b: 1, width: 8 },
                Instr::Bin { op: BinOp::Or, a: 0, b: 1, width: 8 },
                Instr::MaskSel { mask: 0b100, a: 3, b: 2 },
            ],
            stores: vec![(2, 4)],
        };
        assert_lanes_follow_bits(&comb, &[ramp(1), ramp(2), [0; LANES]], |lane, v| {
            let (a, b) = (Bits::new(8, v[0]), Bits::new(8, v[1]));
            vec![if lane == 2 { a.or(b) } else { a.and(b) }.raw()]
        });
    }

    #[test]
    fn lowering_matches_bits_semantics_on_load_bin_and_not_reduce() {
        // A complemented operand reduced to one bit.
        let comb = Tape {
            instrs: vec![
                Instr::Load { sym: 0 },
                Instr::Load { sym: 1 },
                Instr::Bin { op: BinOp::Xor, a: 0, b: 1, width: 8 },
                Instr::Not { a: 2, width: 8 },
                Instr::Reduce { op: ReduceOp::And, a: 3, width: 8 },
            ],
            stores: vec![(2, 4)],
        };
        assert_lanes_follow_bits(&comb, &[ramp(3), ramp(4), [0; LANES]], |_, v| {
            vec![Bits::new(8, v[0]).xor(Bits::new(8, v[1])).not().reduce_and().raw()]
        });
    }

    #[test]
    fn lowering_matches_bits_semantics_on_multi_use_and_stored_producers() {
        // A Bin that feeds the MaskSel and is also stored.
        let comb = Tape {
            instrs: vec![
                Instr::Load { sym: 0 },
                Instr::Load { sym: 1 },
                Instr::Bin { op: BinOp::Add, a: 0, b: 1, width: 8 },
                Instr::MaskSel { mask: 0b10, a: 2, b: 0 },
            ],
            stores: vec![(0, 2), (1, 3)],
        };
        assert_lanes_follow_bits(&comb, &[ramp(5), ramp(6)], |lane, v| {
            let sum = Bits::new(8, v[0]).add(Bits::new(8, v[1])).raw();
            vec![sum, if lane == 1 { sum } else { v[0] }]
        });
    }

    /// Every instruction kind computes in each lane what [`Bits`]
    /// computes on that lane's values (dynamic indices past the width
    /// read 0 and write nothing, as the simulator's do): on the lane
    /// stream when the inputs differ across lanes, and on the scalar
    /// prefix, with `Splat`s into the one `MaskSel`, when they do not.
    #[test]
    fn every_op_matches_bits_semantics_on_both_streams() {
        // Symbols 0..4 are a, b (8 bits), i (3 bits) and j (4 bits);
        // instruction r stores into symbol r - 1.
        let comb = Tape {
            instrs: vec![
                Instr::Load { sym: 0 },
                Instr::Load { sym: 1 },
                Instr::Load { sym: 2 },
                Instr::Load { sym: 3 },
                Instr::Const { value: 0x5A },
                Instr::Bin { op: BinOp::Sub, a: 0, b: 1, width: 8 },
                Instr::Bin { op: BinOp::Lt, a: 0, b: 4, width: 1 },
                Instr::Not { a: 5, width: 8 },
                Instr::Reduce { op: ReduceOp::Xor, a: 0, width: 8 },
                Instr::Shift { op: ShiftOp::Left, a: 1, amount: 3, width: 8 },
                Instr::Shift { op: ShiftOp::Right, a: 1, amount: 9, width: 8 },
                Instr::Slice { a: 0, hi: 6, lo: 2 },
                Instr::Concat { a: 11, b: 2, rhs_width: 3 },
                Instr::DynGet { base: 1, index: 3, width: 8 },
                Instr::DynSet { cur: 0, index: 3, bit: 8, width: 8 },
                Instr::WithSlice { cur: 1, v: 2, hi: 5, lo: 3 },
                Instr::Sel { cond: 6, a: 9, b: 15 },
                Instr::MaskSel { mask: 0xAAAA_AAAA_AAAA_AAAA, a: 12, b: 16 },
            ],
            stores: (5..=17).map(|r| (r - 1, r)).collect(),
        };
        let expected = |lane: usize, v: &[u64]| {
            let (a, b, i, j) = (Bits::new(8, v[0]), Bits::new(8, v[1]), Bits::new(3, v[2]), v[3]);
            let lt = a.cmp_lt(Bits::new(8, 0x5A));
            let xr = a.reduce_xor();
            let (shl, slice) = (b.shl(3), a.slice(6, 2));
            let (cat, ws) = (slice.concat(i), b.with_slice(5, 3, i));
            let (get, set) = match u32::try_from(j).ok().filter(|&j| j < 8) {
                Some(j) => (Bits::bit_value(b.bit(j)), a.with_bit(j, xr.as_bool())),
                None => (Bits::zero(1), a),
            };
            let sel = if lt.as_bool() { shl } else { ws };
            let routed = if lane % 2 == 1 { cat } else { sel };
            let sub = a.sub(b);
            [sub, lt, sub.not(), xr, shl, b.shr(9), slice, cat, get, set, ws, sel, routed]
                .map(|bits| bits.raw())
                .to_vec()
        };
        let mut init = vec![ramp(7), ramp(8), ramp(9), ramp(10)];
        init[2].iter_mut().for_each(|v| *v &= 7);
        init[3].iter_mut().for_each(|v| *v &= 15);
        init.resize(17, [0; LANES]);
        let uniform: Vec<LaneWord> = init.iter().map(|word| [word[5]; LANES]).collect();
        for (init, prefix_ops) in [(&init, 0), (&uniform, 16)] {
            let lowered = lower_unit(&comb, &Tape::default(), diverging(init));
            assert_eq!(lowered.comb.pre.ops.len(), prefix_ops);
            assert_lanes_follow_bits(&comb, init, expected);
        }
    }

    #[test]
    fn constants_pool_across_both_tapes_at_full_opt() {
        let comb = Tape {
            instrs: vec![Instr::Const { value: 7 }, Instr::Not { a: 0, width: 4 }],
            stores: vec![(0, 1)],
        };
        let edge = Tape {
            instrs: vec![Instr::Const { value: 7 }, Instr::Const { value: 1 }],
            stores: vec![(1, 1)],
        };
        let lowered = lower_unit(&comb, &edge, vec![false; 2]);
        assert_eq!(lowered.consts, vec![7, 1]);
        // No op is emitted for a constant: the comb tape lowers to its
        // `Not` alone, and the edge tape to a store from the pool.
        assert_eq!(lowered.comb.pre.ops.len() + lowered.comb.main.ops.len(), 1);
        assert!(lowered.edge.pre.ops.is_empty() && lowered.edge.main.ops.is_empty());
        assert_eq!(lowered.edge.pre.stores, vec![(1, 1)]);
    }

    /// How the kernel oracle draws one operand (registers 0..=2, loaded
    /// from symbols 0..=2).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Operand {
        /// A value of this width.
        Value(u32),
        /// A dynamic bit index into a value of this width: in range half
        /// the time, at or past the width (up to `u64::MAX`) otherwise.
        Index(u32),
    }

    impl Operand {
        fn draw(self, rng: &mut SplitMix64) -> u64 {
            match self {
                Operand::Value(w) => rng.bits(w),
                Operand::Index(w) if rng.chance(0.5) => rng.below(u64::from(w)),
                Operand::Index(w) => {
                    let past = 1 + rng.below(64) as u32;
                    u64::from(w).saturating_add(rng.bits(past))
                }
            }
        }

        /// One lane's three operand values. A second operand drawn like
        /// the first copies it a quarter of the time, so that relational
        /// operators meet equal operands in nearly every case.
        fn draw_lane(operands: [Operand; 3], rng: &mut SplitMix64) -> [u64; 3] {
            let mut v = operands.map(|operand| operand.draw(rng));
            if operands[0] == operands[1] && rng.chance(0.25) {
                v[1] = v[0];
            }
            v
        }
    }

    const BIN_OPS: [BinOp; 15] = [
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Nand,
        BinOp::Nor,
        BinOp::Xnor,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    const REDUCE_OPS: [ReduceOp; 3] = [ReduceOp::Or, ReduceOp::And, ReduceOp::Xor];

    /// Op kinds the kernel oracle draws: every binary operator, every
    /// reduction, then both shifts, `Not`, `Slice`, `Concat`,
    /// `WithSlice`, `DynGet`, `DynSet`, `Sel` and `MaskSel`.
    const KINDS: usize = BIN_OPS.len() + REDUCE_OPS.len() + 10;

    /// A 64-lane mask drawn tile by tile: each `TILE`-lane tile holds no
    /// lane, one, several or all of them.
    fn tile_mask(rng: &mut SplitMix64) -> u64 {
        (0..LANES).step_by(TILE).fold(0, |mask, lo| {
            let tile = match rng.below(4) {
                0 => 0,
                1 => 1 << rng.below(TILE as u64),
                2 => rng.bits(TILE as u32) | 0b11 << rng.below(TILE as u64 - 1),
                _ => TILE_MASK,
            };
            mask | tile << lo
        })
    }

    /// Op `kind` at width `w` over registers 0..=2, and how to draw each
    /// of them; an operand the op does not read is drawn all the same.
    fn draw_op(kind: usize, w: u32, rng: &mut SplitMix64) -> (Instr, [Operand; 3]) {
        use Operand::{Index, Value};
        let at = |rng: &mut SplitMix64| {
            let lo = rng.below(u64::from(w)) as u32;
            (lo + rng.below(u64::from(w - lo)) as u32, lo)
        };
        let (bins, reduces) = (BIN_OPS.len(), BIN_OPS.len() + REDUCE_OPS.len());
        match kind {
            k if k < bins => {
                let op = BIN_OPS[k];
                let width = if op.is_relational() { 1 } else { w };
                (Instr::Bin { op, a: 0, b: 1, width }, [Value(w); 3])
            }
            k if k < reduces => {
                (Instr::Reduce { op: REDUCE_OPS[k - bins], a: 0, width: w }, [Value(w); 3])
            }
            k => match k - reduces {
                shift @ (0 | 1) => {
                    let op = [ShiftOp::Left, ShiftOp::Right][shift];
                    let w64 = u64::from(w);
                    let amount =
                        if rng.chance(0.5) { rng.below(w64) } else { w64 + rng.below(w64 + 1) };
                    (Instr::Shift { op, a: 0, amount: amount as u32, width: w }, [Value(w); 3])
                }
                2 => (Instr::Not { a: 0, width: w }, [Value(w); 3]),
                3 => {
                    let (hi, lo) = at(rng);
                    (Instr::Slice { a: 0, hi, lo }, [Value(w); 3])
                }
                4 => {
                    let total = w.max(2);
                    let rhs_width = 1 + rng.below(u64::from(total - 1)) as u32;
                    let lhs = Value(total - rhs_width);
                    (Instr::Concat { a: 0, b: 1, rhs_width }, [lhs, Value(rhs_width), lhs])
                }
                5 => {
                    let (hi, lo) = at(rng);
                    let v = Value(hi - lo + 1);
                    (Instr::WithSlice { cur: 0, v: 1, hi, lo }, [Value(w), v, Value(w)])
                }
                6 => {
                    (Instr::DynGet { base: 0, index: 1, width: w }, [Value(w), Index(w), Value(w)])
                }
                7 => (
                    Instr::DynSet { cur: 0, index: 1, bit: 2, width: w },
                    [Value(w), Index(w), Value(1)],
                ),
                8 => (Instr::Sel { cond: 2, a: 0, b: 1 }, [Value(w), Value(w), Value(1)]),
                _ => (Instr::MaskSel { mask: tile_mask(rng), a: 0, b: 1 }, [Value(w); 3]),
            },
        }
    }

    /// What [`Bits`] computes for the oracle's `instr` in `lane`, from
    /// the lane's operand values `v`, drawn as `operands` says.
    fn bits_of(instr: &Instr, lane: usize, v: [u64; 3], operands: [Operand; 3]) -> u64 {
        let x = |k: usize| match operands[k] {
            Operand::Value(w) => Bits::new(w, v[k]),
            Operand::Index(_) => unreachable!("indices are read raw"),
        };
        let (a, index) = (x(0), u32::try_from(v[1]).ok());
        let bit = index.filter(|&i| i < a.width());
        let value = match *instr {
            Instr::Bin { op, .. } => {
                let b = x(1);
                match op {
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Xor => a.xor(b),
                    BinOp::Nand => a.nand(b),
                    BinOp::Nor => a.nor(b),
                    BinOp::Xnor => a.xnor(b),
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Eq => a.cmp_eq(b),
                    BinOp::Ne => a.cmp_eq(b).not(),
                    BinOp::Lt => a.cmp_lt(b),
                    BinOp::Le => b.cmp_lt(a).not(),
                    BinOp::Gt => b.cmp_lt(a),
                    BinOp::Ge => a.cmp_lt(b).not(),
                }
            }
            Instr::Reduce { op: ReduceOp::Or, .. } => a.reduce_or(),
            Instr::Reduce { op: ReduceOp::And, .. } => a.reduce_and(),
            Instr::Reduce { op: ReduceOp::Xor, .. } => a.reduce_xor(),
            Instr::Shift { op: ShiftOp::Left, amount, .. } => a.shl(amount),
            Instr::Shift { op: ShiftOp::Right, amount, .. } => a.shr(amount),
            Instr::Not { .. } => a.not(),
            Instr::Slice { hi, lo, .. } => a.slice(hi, lo),
            Instr::Concat { .. } => a.concat(x(1)),
            Instr::WithSlice { hi, lo, .. } => a.with_slice(hi, lo, x(1)),
            Instr::DynGet { .. } => bit.map_or(Bits::zero(1), |i| Bits::bit_value(a.bit(i))),
            Instr::DynSet { .. } => bit.map_or(a, |i| a.with_bit(i, x(2).as_bool())),
            Instr::Sel { .. } => if x(2).as_bool() { a } else { x(1) },
            Instr::MaskSel { mask, .. } => if (mask >> lane) & 1 == 1 { a } else { x(1) },
            Instr::Load { .. } | Instr::Const { .. } => unreachable!("not drawn"),
        };
        value.raw()
    }

    proptest! {
        /// Kernel oracle: one drawn op at a drawn width in 1..=64 computes
        /// in every lane what [`Bits`] computes on that lane's values.
        /// The op reads loads of three drawn symbols and is stored into
        /// a fourth, and runs two ways:
        ///
        /// * on lane-divergent inputs, through [`LaneVm::run_exec`] with
        ///   a drawn `lanes` mask: every lane of a computed tile must
        ///   match, and the tiles it skips must keep their old state;
        /// * on uniform inputs, through the scalar prefix (a `MaskSel`
        ///   still runs on the lane stream, fed by `Splat`s).
        #[test]
        fn every_operator_kernel_matches_bits_on_every_computed_lane(
            seed in any::<u64>(),
            kind in 0..KINDS,
            width in 1u32..=64,
        ) {
            let mut rng = SplitMix64::new(seed);
            let (instr, operands) = draw_op(kind, width, &mut rng);
            let comb = Tape {
                instrs: vec![
                    Instr::Load { sym: 0 },
                    Instr::Load { sym: 1 },
                    Instr::Load { sym: 2 },
                    instr.clone(),
                ],
                stores: vec![(3, 3)],
            };
            let lanes = tile_mask(&mut rng);
            let stale: LaneWord = std::array::from_fn(|_| rng.next_u64());
            let per_lane: [[u64; 3]; LANES] =
                std::array::from_fn(|_| Operand::draw_lane(operands, &mut rng));
            let once = Operand::draw_lane(operands, &mut rng);
            let divergent: Vec<LaneWord> = (0..3)
                .map(|k| std::array::from_fn(|lane| per_lane[lane][k]))
                .chain([stale])
                .collect();
            let uniform: Vec<LaneWord> = once.iter().map(|&v| [v; LANES]).chain([stale]).collect();
            let runs = [(&divergent, lanes, true), (&uniform, u64::MAX, false)];
            for (init, lanes, on_lanes) in runs {
                let lowered = lower_unit(&comb, &Tape::default(), diverging(init));
                if on_lanes {
                    prop_assert!(lowered.comb.pre.ops.is_empty(), "{:?} on the lane stream", instr);
                } else {
                    // Two `Splat`s feed a `MaskSel`; every other op runs
                    // in the prefix and stores a broadcast.
                    let lane_ops = if matches!(instr, Instr::MaskSel { .. }) { 3 } else { 0 };
                    prop_assert_eq!(lowered.comb.main.ops.len(), lane_ops, "{:?}", instr);
                }
                let (vm, computed) = run_lowered_over(&comb, init, lanes);
                let tiles: Vec<usize> = tiles_of(lanes | 1).collect();
                prop_assert_eq!(computed, tiles.len() * TILE);
                for lane in 0..LANES {
                    let got = vm.state[3][lane];
                    if tiles.contains(&(lane / TILE * TILE)) {
                        let v = [init[0][lane], init[1][lane], init[2][lane]];
                        let want = bits_of(&instr, lane, v, operands);
                        prop_assert_eq!(
                            got, want,
                            "{:?} at width {}, lane {}, operands {:?}", instr, width, lane, v
                        );
                    } else {
                        prop_assert_eq!(got, stale[lane], "{:?}: skipped lane {}", instr, lane);
                    }
                }
            }
        }
    }
}
