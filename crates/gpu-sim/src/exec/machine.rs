//! Shared machine state and instruction semantics.
//!
//! One warp-step function ([`exec_instr`]) implements the meaning of every
//! instruction for all 32 lanes of a warp under an active mask. Both the
//! functional and the timed executor call it, so values, addresses and
//! side effects are identical in both modes by construction: one decoder,
//! two schedulers.
//!
//! A warp executes as lane slices (DESIGN.md §17):
//!
//! * the register file is reg-major per warp, so one register of one warp
//!   is a contiguous `[u32; 32]`, and a predicate of one warp is a single
//!   `u32` lane bitmask;
//! * an ALU-class instruction resolves each operand once into a lane slice
//!   (a register slice or a splatted immediate), chooses its operation
//!   outside the lane loop, computes all 32 lanes branch-free, and blends
//!   the result into the destination under the active mask;
//! * a memory instruction visits its active lanes in ascending order with
//!   every sanitizer check of the per-word path; an aligned, in-bounds
//!   shared-memory access is checked once per lane instead of once per
//!   word.

use crate::coalesce::AccessWidth;
use crate::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use crate::ir::lower::{LinStmt, Program};
use crate::ir::{AluOp, CmpOp, Instr, MemSpace, Operand, Pred, Reg, SpecialReg, UnaryOp};
use crate::mem::DeviceMem;

/// Warp width — fixed at 32 for every CUDA device.
pub const WARP: usize = 32;

/// One 32-bit value per lane of a warp.
type Lanes = [u32; WARP];

/// Launch-wide environment visible to special registers.
#[derive(Debug, Clone, Copy)]
pub struct LaunchEnv {
    /// `blockDim.x`
    pub block_dim: u32,
    /// `gridDim.x`
    pub grid_dim: u32,
}

/// Mutable state of one thread block.
#[derive(Debug)]
pub struct BlockCtx {
    /// `blockIdx.x`
    pub block_id: u32,
    /// Threads in this block.
    pub n_threads: usize,
    /// Warps in this block: `n_threads` rounded up to whole warps.
    n_warps: usize,
    /// Register file, reg-major per warp: lane `l` of register `r` in warp
    /// `w` is `regs[(r * n_warps + w) * WARP + l]`, so one register of one
    /// warp is a contiguous lane slice. Raw 32-bit values. The lanes of a
    /// partial last warp past `n_threads` exist but never execute.
    regs: Vec<u32>,
    /// Predicate file: `preds[p * n_warps + w]` is predicate `p` of warp
    /// `w` as a lane bitmask (bit `l` = lane `l`).
    preds: Vec<u32>,
    /// Shared memory bytes.
    pub smem: Vec<u8>,
}

impl BlockCtx {
    /// Create block state with parameters bound to the first registers of
    /// every thread (as the lowered ABI requires). A parameter-count mismatch
    /// is a [`FaultKind::BadLaunch`].
    pub fn new(
        prog: &Program,
        block_id: u32,
        n_threads: usize,
        params: &[u32],
    ) -> DeviceResult<Self> {
        if params.len() != prog.n_params as usize {
            return Err(DeviceError::new(FaultKind::BadLaunch {
                reason: format!(
                    "kernel expects {} parameters, launch passed {}",
                    prog.n_params,
                    params.len()
                ),
            })
            .with_kernel(&prog.name)
            .with_block(block_id));
        }
        let n_warps = n_threads.div_ceil(WARP);
        let reg_lanes = n_warps * WARP;
        let mut regs = vec![0u32; prog.n_regs as usize * reg_lanes];
        for (r, &p) in params.iter().enumerate() {
            regs[r * reg_lanes..(r + 1) * reg_lanes].fill(p);
        }
        Ok(BlockCtx {
            block_id,
            n_threads,
            n_warps,
            regs,
            preds: vec![0u32; prog.n_preds as usize * n_warps],
            smem: vec![0u8; prog.smem_bytes as usize],
        })
    }

    /// Index of lane 0 of register `r` of `warp` in the register file.
    #[inline]
    fn slot(&self, warp: usize, r: Reg) -> usize {
        (r.0 as usize * self.n_warps + warp) * WARP
    }

    #[inline]
    fn lanes(&self, warp: usize, r: Reg) -> &Lanes {
        let s = self.slot(warp, r);
        self.regs[s..s + WARP]
            .try_into()
            .expect("one warp of lanes")
    }

    #[inline]
    fn lanes_mut(&mut self, warp: usize, r: Reg) -> &mut Lanes {
        let s = self.slot(warp, r);
        (&mut self.regs[s..s + WARP])
            .try_into()
            .expect("one warp of lanes")
    }

    /// Read a register of a thread.
    #[inline]
    pub fn reg(&self, t: usize, r: Reg) -> u32 {
        self.lanes(t / WARP, r)[t % WARP]
    }

    /// Write a register of a thread.
    #[inline]
    pub fn set_reg(&mut self, t: usize, r: Reg, v: u32) {
        self.lanes_mut(t / WARP, r)[t % WARP] = v;
    }

    /// Read a predicate of a thread.
    #[inline]
    pub fn pred(&self, t: usize, p: Pred) -> bool {
        self.preds[p.0 as usize * self.n_warps + t / WARP] & (1 << (t % WARP)) != 0
    }

    /// An operand's value in every lane of `warp`: a copy of the register's
    /// lane slice, or the immediate splatted across the warp.
    #[inline]
    fn operand(&self, warp: usize, o: &Operand) -> Lanes {
        match o {
            Operand::R(r) => *self.lanes(warp, *r),
            Operand::ImmU(v) => [*v; WARP],
            Operand::ImmF(f) => [f.to_bits(); WARP],
        }
    }

    /// Write `v` to register `r` of `warp` in the lanes of `mask`: a plain
    /// store when every lane is active, a branch-free blend otherwise.
    #[inline]
    fn write(&mut self, warp: usize, r: Reg, mask: u32, v: &Lanes) {
        let dst = self.lanes_mut(warp, r);
        if mask == u32::MAX {
            *dst = *v;
            return;
        }
        for (l, (d, x)) in dst.iter_mut().zip(v).enumerate() {
            // All ones for an inactive lane, zero for an active one.
            let keep = ((mask >> l) & 1).wrapping_sub(1);
            *d = (x & !keep) | (*d & keep);
        }
    }

    /// Validate a shared-memory word access. Shared memory is zero-initialized
    /// on real hardware-adjacent semantics here (no poison tracking): the
    /// sanitizer checks alignment and bounds only.
    fn smem_check(&self, addr: u64) -> DeviceResult<()> {
        if !addr.is_multiple_of(4) {
            return Err(DeviceError::new(FaultKind::Misaligned {
                space: MemSpace::Shared,
                addr,
                width: 4,
            }));
        }
        if addr + 4 > self.smem.len() as u64 {
            return Err(DeviceError::new(FaultKind::OutOfBounds {
                space: MemSpace::Shared,
                addr,
                width: 4,
                limit: self.smem.len() as u64,
                redzone: false,
            }));
        }
        Ok(())
    }

    /// Whether every word of an `n_words`-word shared access at `addr`
    /// passes [`BlockCtx::smem_check`]: word-aligned and wholly in bounds.
    #[inline]
    fn smem_fits(&self, addr: u64, n_words: usize) -> bool {
        addr.is_multiple_of(4)
            && addr
                .checked_add(4 * n_words as u64)
                .is_some_and(|end| end <= self.smem.len() as u64)
    }

    #[inline]
    fn smem_word(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.smem[a..a + 4].try_into().expect("4-byte slice"))
    }

    #[inline]
    fn smem_set_word(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        self.smem[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Description of the memory traffic of one executed warp instruction, for
/// the timed engine's coalescer/bank models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTrace {
    /// Space accessed.
    pub space: MemSpace,
    /// `true` for a load (creates a register dependency), `false` for a store.
    pub is_load: bool,
    /// Access width.
    pub width: AccessWidth,
    /// Per-lane byte addresses (`None` = lane inactive), 32 entries.
    pub addrs: Vec<Option<u64>>,
}

/// The lanes set in `mask`, in ascending order.
#[inline]
fn set_lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

#[inline(always)]
fn map1(x: &Lanes, f: impl Fn(u32) -> u32) -> Lanes {
    std::array::from_fn(|l| f(x[l]))
}

#[inline(always)]
fn map2(x: &Lanes, y: &Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
    std::array::from_fn(|l| f(x[l], y[l]))
}

#[inline(always)]
fn fmap2(x: &Lanes, y: &Lanes, f: impl Fn(f32, f32) -> f32) -> Lanes {
    map2(x, y, |a, b| {
        f(f32::from_bits(a), f32::from_bits(b)).to_bits()
    })
}

/// The lane bitmask of `f` over every lane (inactive lanes included; the
/// caller masks).
#[inline(always)]
fn lane_bits(x: &Lanes, y: &Lanes, f: impl Fn(u32, u32) -> bool) -> u32 {
    (0..WARP).fold(0, |m, l| m | (f(x[l], y[l]) as u32) << l)
}

fn alu_lanes(op: AluOp, x: &Lanes, y: &Lanes) -> Lanes {
    match op {
        AluOp::FAdd => fmap2(x, y, |a, b| a + b),
        AluOp::FSub => fmap2(x, y, |a, b| a - b),
        AluOp::FMul => fmap2(x, y, |a, b| a * b),
        AluOp::FMin => fmap2(x, y, f32::min),
        AluOp::FMax => fmap2(x, y, f32::max),
        AluOp::IAdd => map2(x, y, u32::wrapping_add),
        AluOp::ISub => map2(x, y, u32::wrapping_sub),
        AluOp::IMul => map2(x, y, u32::wrapping_mul),
        AluOp::IShl => map2(x, y, u32::wrapping_shl),
        AluOp::IAnd => map2(x, y, |a, b| a & b),
        AluOp::IMin => map2(x, y, u32::min),
    }
}

fn unary_lanes(op: UnaryOp, x: &Lanes) -> Lanes {
    match op {
        UnaryOp::FRsqrt => map1(x, |a| (1.0 / f32::from_bits(a).sqrt()).to_bits()),
        UnaryOp::FNeg => map1(x, |a| (-f32::from_bits(a)).to_bits()),
        UnaryOp::U2F => map1(x, |a| (a as f32).to_bits()),
        UnaryOp::F2U => map1(x, |a| f32::from_bits(a) as u32),
    }
}

fn cmp_bits(cmp: CmpOp, x: &Lanes, y: &Lanes) -> u32 {
    match cmp {
        CmpOp::ULt => lane_bits(x, y, |a, b| a < b),
        CmpOp::UGe => lane_bits(x, y, |a, b| a >= b),
        CmpOp::UEq => lane_bits(x, y, |a, b| a == b),
        CmpOp::UNe => lane_bits(x, y, |a, b| a != b),
        CmpOp::FLt => lane_bits(x, y, |a, b| f32::from_bits(a) < f32::from_bits(b)),
    }
}

/// Execute one instruction for a warp.
///
/// `warp` is the warp index within the block, `mask` the active-lane mask
/// (lanes past the end of the block never execute), `clock_value` what a
/// `Clock` instruction should read. With `want_trace` set, returns the
/// memory trace if the instruction touched memory (the timed engine feeds
/// it to the coalescer/bank models); the functional executor passes `false`
/// and skips the per-lane address bookkeeping entirely. A memory fault
/// carries the exact (block, thread, instruction) coordinates of the
/// offending lane, and the lanes before it keep their side effects.
///
/// Generic over [`DeviceMem`] so the same semantics run against the real
/// [`crate::mem::GlobalMemory`] (sequential path) and against per-block
/// [`crate::mem::BlockShard`] write-views (parallel path).
///
/// `plan` is the fault-injection hook: when set, the effective address of a
/// matching (block, thread, instruction) access is mutated before the access
/// is performed (test harness only — production paths pass `None`).
#[allow(clippy::too_many_arguments)]
pub fn exec_instr<M: DeviceMem>(
    i: &Instr,
    ctx: &mut BlockCtx,
    warp: usize,
    mask: u32,
    env: &LaunchEnv,
    gmem: &mut M,
    clock_value: u64,
    plan: Option<&FaultPlan>,
    want_trace: bool,
) -> DeviceResult<Option<MemTrace>> {
    let mask = mask & live_lane_mask(ctx.n_threads, warp);
    let (dst, v) = match i {
        Instr::Ld {
            dsts,
            space,
            base,
            offset,
        } => {
            let n_words = dsts.len();
            let width = AccessWidth::from_bytes(4 * n_words as u32).expect("load width");
            let mut addrs = if want_trace {
                vec![None; WARP]
            } else {
                Vec::new()
            };
            let bid = ctx.block_id;
            let base = ctx.slot(warp, *base);
            for l in set_lanes(mask) {
                let t = warp * WARP + l;
                let mut addr = ctx.regs[base + l].wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock_value, addr);
                }
                if want_trace {
                    addrs[l] = Some(addr);
                }
                let fault_at = move |e: DeviceError| {
                    e.with_block(bid)
                        .with_thread(t as u32)
                        .with_instruction(clock_value)
                };
                // Fast path: a whole shared access that passes every word
                // check is checked once.
                if *space == MemSpace::Shared && ctx.smem_fits(addr, n_words) {
                    for (w, d) in dsts.iter().enumerate() {
                        let v = ctx.smem_word(addr + 4 * w as u64);
                        let s = ctx.slot(warp, *d);
                        ctx.regs[s + l] = v;
                    }
                    continue;
                }
                // A vector access must be naturally aligned as a whole; the
                // per-word loop below would only catch word misalignment.
                if matches!(space, MemSpace::Global | MemSpace::Texture)
                    && !addr.is_multiple_of(4 * n_words as u64)
                {
                    return Err(fault_at(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words as u64,
                    })));
                }
                for (w, d) in dsts.iter().enumerate() {
                    let a = addr + 4 * w as u64;
                    let v = match space {
                        MemSpace::Global | MemSpace::Texture => gmem.load_u32(a),
                        MemSpace::Shared => ctx.smem_check(a).map(|()| ctx.smem_word(a)),
                    }
                    .map_err(fault_at)?;
                    let s = ctx.slot(warp, *d);
                    ctx.regs[s + l] = v;
                }
            }
            return Ok(want_trace.then_some(MemTrace {
                space: *space,
                is_load: true,
                width,
                addrs,
            }));
        }
        Instr::St {
            srcs,
            space,
            base,
            offset,
        } => {
            let n_words = srcs.len();
            let width = AccessWidth::from_bytes(4 * n_words as u32).expect("store width");
            let mut addrs = if want_trace {
                vec![None; WARP]
            } else {
                Vec::new()
            };
            // Stores write no register, so every source resolves up front.
            let mut vals = [[0u32; WARP]; 4];
            if mask != 0 {
                for (v, s) in vals.iter_mut().zip(srcs) {
                    *v = ctx.operand(warp, s);
                }
            }
            let bid = ctx.block_id;
            let base = ctx.slot(warp, *base);
            for l in set_lanes(mask) {
                let t = warp * WARP + l;
                let mut addr = ctx.regs[base + l].wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock_value, addr);
                }
                if want_trace {
                    addrs[l] = Some(addr);
                }
                let fault_at = move |e: DeviceError| {
                    e.with_block(bid)
                        .with_thread(t as u32)
                        .with_instruction(clock_value)
                };
                if *space == MemSpace::Shared && ctx.smem_fits(addr, n_words) {
                    for (w, v) in vals[..n_words].iter().enumerate() {
                        ctx.smem_set_word(addr + 4 * w as u64, v[l]);
                    }
                    continue;
                }
                if *space == MemSpace::Global && !addr.is_multiple_of(4 * n_words as u64) {
                    return Err(fault_at(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words as u64,
                    })));
                }
                for (w, v) in vals[..n_words].iter().enumerate() {
                    let a = addr + 4 * w as u64;
                    match space {
                        MemSpace::Global => gmem.store_u32(a, v[l]),
                        MemSpace::Shared => ctx.smem_check(a).map(|()| ctx.smem_set_word(a, v[l])),
                        MemSpace::Texture => Err(DeviceError::new(FaultKind::ReadOnlyWrite {
                            space: MemSpace::Texture,
                            addr,
                        })),
                    }
                    .map_err(fault_at)?;
                }
            }
            return Ok(want_trace.then_some(MemTrace {
                space: *space,
                is_load: false,
                width,
                addrs,
            }));
        }
        _ if mask == 0 => return Ok(None),
        Instr::Setp { dst, cmp, a, b } => {
            let bits = cmp_bits(*cmp, &ctx.operand(warp, a), &ctx.operand(warp, b));
            let p = &mut ctx.preds[dst.0 as usize * ctx.n_warps + warp];
            *p = (*p & !mask) | (bits & mask);
            return Ok(None);
        }
        Instr::Mov { dst, src } => (dst, ctx.operand(warp, src)),
        Instr::Special { dst, sr } => {
            let v = match sr {
                SpecialReg::TidX => std::array::from_fn(|l| (warp * WARP + l) as u32),
                SpecialReg::CtaidX => [ctx.block_id; WARP],
                SpecialReg::NtidX => [env.block_dim; WARP],
                SpecialReg::NctaidX => [env.grid_dim; WARP],
            };
            (dst, v)
        }
        Instr::Alu { op, dst, a, b } => (
            dst,
            alu_lanes(*op, &ctx.operand(warp, a), &ctx.operand(warp, b)),
        ),
        Instr::Mad {
            float,
            dst,
            a,
            b,
            c,
        } => {
            let (x, y, z) = (
                ctx.operand(warp, a),
                ctx.operand(warp, b),
                ctx.operand(warp, c),
            );
            let v = if *float {
                // G80 MAD truncates the intermediate product; modern fma
                // differs in the last ulp. We use mul+add like the CPU
                // reference so functional comparisons are exact.
                std::array::from_fn(|l| {
                    (f32::from_bits(x[l]) * f32::from_bits(y[l]) + f32::from_bits(z[l])).to_bits()
                })
            } else {
                std::array::from_fn(|l| x[l].wrapping_mul(y[l]).wrapping_add(z[l]))
            };
            (dst, v)
        }
        Instr::Unary { op, dst, a } => (dst, unary_lanes(*op, &ctx.operand(warp, a))),
        Instr::Clock { dst } => (dst, [clock_value as u32; WARP]),
    };
    ctx.write(warp, *dst, mask, &v);
    Ok(None)
}

// ---------------------------------------------------------------------------
// Warp cursor over the lowered program
// ---------------------------------------------------------------------------

/// One stack frame of a warp's position in the program arena.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Sequence index in the arena.
    pub seq: usize,
    /// Next statement index within the sequence.
    pub idx: usize,
    /// Active-lane mask for this frame.
    pub mask: u32,
    /// For a divergent-loop body frame: the continuation predicate tested at
    /// the bottom of each pass.
    pub while_of: Option<(Pred, bool)>,
}

/// A warp's resumable position in a lowered program.
#[derive(Debug, Clone)]
pub struct Cursor {
    frames: Vec<Frame>,
}

/// What [`Cursor::fetch`] yields.
#[derive(Debug)]
pub enum FetchItem<'a> {
    /// A lowered statement to handle under the given mask.
    Stmt(&'a LinStmt, u32),
    /// The bottom of a divergent loop pass: the executor must evaluate the
    /// predicate under `mask` and call [`Cursor::while_backedge`].
    WhileBackedge {
        /// Continuation predicate.
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// The lanes that executed this pass.
        mask: u32,
    },
}

impl Cursor {
    /// Cursor at the program entry with the given initial active mask.
    pub fn new(prog: &Program, mask: u32) -> Self {
        Cursor {
            frames: vec![Frame {
                seq: prog.root,
                idx: 0,
                mask,
                while_of: None,
            }],
        }
    }

    /// `true` once the warp has retired every instruction.
    pub fn done(&self) -> bool {
        self.frames.is_empty()
    }

    /// Peek the next fetchable item, resolving control flow that needs no
    /// execution (frame pops). Branches, `IfMasked` and while back-edges need
    /// predicate values, so those are surfaced for the executor to resolve.
    pub fn fetch<'a>(&mut self, prog: &'a Program) -> Option<FetchItem<'a>> {
        loop {
            let top = self.frames.last().copied()?;
            if top.idx >= prog.seqs[top.seq].len() {
                if let Some((pred, negate)) = top.while_of {
                    return Some(FetchItem::WhileBackedge {
                        pred,
                        negate,
                        mask: top.mask,
                    });
                }
                self.frames.pop();
                continue;
            }
            return Some(FetchItem::Stmt(&prog.seqs[top.seq][top.idx], top.mask));
        }
    }

    /// Advance past a plain instruction or `Sync`.
    pub fn step(&mut self) {
        self.frames.last_mut().expect("step on finished cursor").idx += 1;
    }

    /// Resolve a branch: if `taken`, jump to `target` in the current
    /// sequence; otherwise fall through.
    pub fn branch(&mut self, taken: bool, target: usize) {
        let f = self.frames.last_mut().expect("branch on finished cursor");
        if taken {
            f.idx = target;
        } else {
            f.idx += 1;
        }
    }

    /// Enter an `IfMasked`: push the else and then frames (then executes
    /// first). Frames with empty masks are skipped.
    pub fn enter_if(&mut self, then_seq: usize, else_seq: usize, then_mask: u32, else_mask: u32) {
        self.step();
        if else_mask != 0 {
            self.frames.push(Frame {
                seq: else_seq,
                idx: 0,
                mask: else_mask,
                while_of: None,
            });
        }
        if then_mask != 0 {
            self.frames.push(Frame {
                seq: then_seq,
                idx: 0,
                mask: then_mask,
                while_of: None,
            });
        }
    }

    /// Enter a `WhileMasked` body (bottom-tested: the body runs at least once
    /// with the current mask).
    pub fn enter_while(&mut self, body_seq: usize, pred: Pred, negate: bool, mask: u32) {
        self.step();
        if mask != 0 {
            self.frames.push(Frame {
                seq: body_seq,
                idx: 0,
                mask,
                while_of: Some((pred, negate)),
            });
        }
    }

    /// Resolve a while back-edge: lanes in `continue_mask` run another pass;
    /// an empty mask exits the loop.
    pub fn while_backedge(&mut self, continue_mask: u32) {
        let f = self.frames.last_mut().expect("backedge on finished cursor");
        assert!(f.while_of.is_some(), "while_backedge outside a while frame");
        if continue_mask != 0 {
            f.mask = continue_mask;
            f.idx = 0;
        } else {
            self.frames.pop();
        }
    }
}

/// Evaluate a predicate for every active lane of a warp; returns the lane
/// mask of threads where it holds.
pub fn pred_mask(ctx: &BlockCtx, warp: usize, mask: u32, p: Pred, negate: bool) -> u32 {
    let mask = mask & live_lane_mask(ctx.n_threads, warp);
    if mask == 0 {
        return 0;
    }
    let bits = ctx.preds[p.0 as usize * ctx.n_warps + warp];
    (if negate { !bits } else { bits }) & mask
}

/// Mask of lanes of `warp` that map to real threads of the block.
pub fn live_lane_mask(n_threads: usize, warp: usize) -> u32 {
    let live = n_threads.saturating_sub(warp.saturating_mul(WARP));
    if live >= WARP {
        u32::MAX
    } else {
        (1u32 << live) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower::lower;
    use crate::ir::KernelBuilder;
    use crate::mem::GlobalMemory;

    fn env() -> LaunchEnv {
        LaunchEnv {
            block_dim: 32,
            grid_dim: 1,
        }
    }

    #[test]
    fn params_are_bound_to_leading_registers() {
        let mut b = KernelBuilder::new("p");
        let p0 = b.param();
        let _p1 = b.param();
        let _ = b.iadd(p0.into(), Operand::ImmU(1));
        let prog = lower(&b.finish());
        let ctx = BlockCtx::new(&prog, 0, 32, &[11, 22]).unwrap();
        assert_eq!(ctx.reg(0, Reg(0)), 11);
        assert_eq!(ctx.reg(31, Reg(1)), 22);
    }

    #[test]
    fn alu_semantics_float_and_int() {
        let alu = |op, x: u32, y: u32| alu_lanes(op, &[x; WARP], &[y; WARP])[0];
        assert_eq!(
            f32::from_bits(alu(AluOp::FAdd, 1.5f32.to_bits(), 2.5f32.to_bits())),
            4.0
        );
        assert_eq!(alu(AluOp::IAdd, u32::MAX, 1), 0);
        assert_eq!(alu(AluOp::IShl, 1, 4), 16);
        assert_eq!(
            f32::from_bits(alu(AluOp::FMax, (-1.0f32).to_bits(), 2.0f32.to_bits())),
            2.0
        );
    }

    #[test]
    fn exec_mov_respects_mask() {
        let mut b = KernelBuilder::new("m");
        let r = b.reg();
        b.emit(Instr::Mov {
            dst: r,
            src: Operand::ImmU(7),
        });
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        // Only lanes 0 and 3 active.
        exec_instr(
            &Instr::Mov {
                dst: r,
                src: Operand::ImmU(7),
            },
            &mut ctx,
            0,
            0b1001,
            &env(),
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(0, r), 7);
        assert_eq!(ctx.reg(1, r), 0);
        assert_eq!(ctx.reg(3, r), 7);
    }

    #[test]
    fn special_regs_reflect_thread_identity() {
        let mut b = KernelBuilder::new("s");
        let t = b.special(SpecialReg::TidX);
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 5, 64, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        let e = LaunchEnv {
            block_dim: 64,
            grid_dim: 9,
        };
        exec_instr(
            &Instr::Special {
                dst: t,
                sr: SpecialReg::TidX,
            },
            &mut ctx,
            1,
            u32::MAX,
            &e,
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(32, t), 32);
        assert_eq!(ctx.reg(63, t), 63);
        exec_instr(
            &Instr::Special {
                dst: t,
                sr: SpecialReg::CtaidX,
            },
            &mut ctx,
            0,
            u32::MAX,
            &e,
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(0, t), 5);
    }

    #[test]
    fn global_load_produces_mem_trace() {
        let mut b = KernelBuilder::new("ld");
        let base = b.param();
        let _v = b.ld(MemSpace::Global, base, 0, 1);
        let k = b.finish();
        let prog = lower(&k);
        let mut gmem = GlobalMemory::new(1024);
        let ptr = gmem.alloc_f32(&[1.0; 64]).unwrap();
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[ptr.0 as u32]).unwrap();
        // Give each lane a distinct address: addr = base + 4*t via a mad.
        // Simpler: directly execute a load with base reg holding per-thread
        // addresses.
        let r = Reg(0);
        for t in 0..32 {
            let a = ptr.0 as u32 + 4 * t as u32;
            ctx.set_reg(t, r, a);
        }
        let tr = exec_instr(
            &Instr::Ld {
                dsts: vec![Reg(1)],
                space: MemSpace::Global,
                base: r,
                offset: 0,
            },
            &mut ctx,
            0,
            u32::MAX,
            &env(),
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap()
        .unwrap();
        assert!(tr.is_load);
        assert_eq!(tr.addrs.iter().flatten().count(), 32);
        assert_eq!(f32::from_bits(ctx.reg(7, Reg(1))), 1.0);
    }

    #[test]
    fn shared_roundtrip_within_block() {
        let mut b = KernelBuilder::new("sm");
        b.shared_mem(256);
        let r = b.mov(Operand::ImmU(16));
        let v = b.mov(Operand::ImmF(3.5));
        b.st(MemSpace::Shared, r, 0, vec![v.into()]);
        let _w = b.ld(MemSpace::Shared, r, 0, 1);
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 0, 1, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        for s in &prog.seqs[prog.root] {
            if let LinStmt::I(i) = s {
                exec_instr(i, &mut ctx, 0, 1, &env(), &mut gmem, 0, None, false).unwrap();
            }
        }
        // The load's destination is the last register.
        let last = Reg(k.n_regs - 1);
        assert_eq!(f32::from_bits(ctx.reg(0, last)), 3.5);
    }

    #[test]
    fn cursor_walks_pops_and_branches() {
        let mut b = KernelBuilder::new("c");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, _| {
            b.mov(Operand::ImmU(1));
        });
        let prog = lower(&b.finish());
        let mut cur = Cursor::new(&prog, u32::MAX);
        let mut executed = 0;
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        while let Some(item) = cur.fetch(&prog) {
            let FetchItem::Stmt(stmt, mask) = item else {
                unreachable!("no while loops here")
            };
            match stmt {
                LinStmt::I(i) => {
                    exec_instr(i, &mut ctx, 0, mask, &env(), &mut gmem, 0, None, false).unwrap();
                    executed += 1;
                    cur.step();
                }
                LinStmt::Bra {
                    pred,
                    negate,
                    target,
                } => {
                    let m = pred_mask(&ctx, 0, mask, *pred, *negate);
                    assert!(m == 0 || m == mask, "non-uniform loop branch");
                    cur.branch(m == mask, *target);
                }
                LinStmt::IfMasked { .. } | LinStmt::WhileMasked { .. } | LinStmt::Sync => {
                    unreachable!()
                }
            }
        }
        // mov init + 2 × (body mov + add + setp) = 7 executed instructions.
        assert_eq!(executed, 7);
        assert!(cur.done());
    }

    #[test]
    fn live_lane_masks() {
        assert_eq!(live_lane_mask(32, 0), u32::MAX);
        assert_eq!(live_lane_mask(40, 1), 0xFF);
        assert_eq!(live_lane_mask(40, 2), 0);
        assert_eq!(live_lane_mask(0, 0), 0);
        assert_eq!(live_lane_mask(31, 0), u32::MAX >> 1);
        assert_eq!(live_lane_mask(64, 1), u32::MAX);
        assert_eq!(live_lane_mask(40, usize::MAX), 0);
    }

    #[test]
    fn registers_are_reg_major_lane_slices() {
        let mut b = KernelBuilder::new("layout");
        let p = b.param();
        let _ = b.iadd(p.into(), Operand::ImmU(1));
        let prog = lower(&b.finish());
        // 40 threads: two warps, the second one partial.
        let mut ctx = BlockCtx::new(&prog, 0, 40, &[9]).unwrap();
        assert_eq!(ctx.regs.len(), prog.n_regs as usize * 2 * WARP);
        ctx.set_reg(33, Reg(1), 5);
        assert_eq!(ctx.regs[(2 + 1) * WARP + 1], 5);
        assert_eq!(ctx.lanes(1, Reg(0)), &[9; WARP]);
    }
}
