//! Lane-semantics differential tests: the lane-slice warp stepper
//! ([`exec_instr`] over a reg-major register file with predicate bitmasks)
//! must match a plain per-lane scalar reference stepper — a thread-major
//! register file, one `bool` per thread predicate, and every instruction
//! evaluated lane by lane in ascending order.
//!
//! Random straight-line programs cover every [`Instr`] variant under random
//! active masks, partial warps (`n_threads % 32 != 0`), multi-warp blocks
//! and float immediates including NaN payloads, ±inf and -0.0. After every
//! instruction the two steppers must agree on every register, predicate,
//! shared-memory byte and global word (data, shadow and ECC), on the memory
//! trace, and — for out-of-bounds, misaligned, uninitialized,
//! ECC-corrupted and injected accesses — on the error kind and its
//! (block, thread, instruction) coordinates.

use gpu_sim::coalesce::AccessWidth;
use gpu_sim::exec::machine::{
    exec_instr, live_lane_mask, pred_mask, BlockCtx, LaunchEnv, MemTrace, WARP,
};
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan, Mutation, ANY_INSTRUCTION};
use gpu_sim::ir::lower::Program;
use gpu_sim::ir::{AluOp, CmpOp, Instr, MemSpace, Operand, Pred, Reg, SpecialReg, UnaryOp};
use gpu_sim::mem::GlobalMemory;
use proptest::prelude::*;
use simcore::{Rng64, SplitMix64};

const N_REGS: u16 = 10;
const N_PREDS: u16 = 3;
const N_PARAMS: u16 = 2;
const SMEM_BYTES: u32 = 256;

// ---------------------------------------------------------------------------
// The per-lane scalar reference stepper
// ---------------------------------------------------------------------------

/// One block's state in the reference's layout: thread-major registers and
/// one `bool` per (thread, predicate).
struct RefBlock {
    block_id: u32,
    n_threads: usize,
    regs: Vec<u32>,
    preds: Vec<bool>,
    smem: Vec<u8>,
}

impl RefBlock {
    fn reg(&self, t: usize, r: Reg) -> u32 {
        self.regs[t * N_REGS as usize + r.0 as usize]
    }

    fn set_reg(&mut self, t: usize, r: Reg, v: u32) {
        self.regs[t * N_REGS as usize + r.0 as usize] = v;
    }

    fn pred(&self, t: usize, p: Pred) -> bool {
        self.preds[t * N_PREDS as usize + p.0 as usize]
    }

    fn opv(&self, t: usize, o: &Operand) -> u32 {
        match o {
            Operand::R(r) => self.reg(t, *r),
            Operand::ImmU(v) => *v,
            Operand::ImmF(f) => f.to_bits(),
        }
    }

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
}

/// The active threads of `warp` under `mask`, ascending.
fn ref_lanes(mask: u32, warp: usize, n_threads: usize) -> Vec<usize> {
    (0..WARP)
        .filter(|l| mask & (1 << l) != 0)
        .map(|l| warp * WARP + l)
        .filter(|t| *t < n_threads)
        .collect()
}

fn ref_alu(op: AluOp, x: u32, y: u32) -> u32 {
    let (fx, fy) = (f32::from_bits(x), f32::from_bits(y));
    match op {
        AluOp::FAdd => (fx + fy).to_bits(),
        AluOp::FSub => (fx - fy).to_bits(),
        AluOp::FMul => (fx * fy).to_bits(),
        AluOp::FMin => fx.min(fy).to_bits(),
        AluOp::FMax => fx.max(fy).to_bits(),
        AluOp::IAdd => x.wrapping_add(y),
        AluOp::ISub => x.wrapping_sub(y),
        AluOp::IMul => x.wrapping_mul(y),
        AluOp::IShl => x.wrapping_shl(y),
        AluOp::IAnd => x & y,
        AluOp::IMin => x.min(y),
    }
}

/// One instruction for one warp, lane by lane.
#[allow(clippy::too_many_arguments)]
fn ref_step(
    i: &Instr,
    s: &mut RefBlock,
    warp: usize,
    mask: u32,
    env: &LaunchEnv,
    gmem: &mut GlobalMemory,
    clock: u64,
    plan: Option<&FaultPlan>,
    want_trace: bool,
) -> DeviceResult<Option<MemTrace>> {
    let lanes = ref_lanes(mask, warp, s.n_threads);
    let bid = s.block_id;
    let fault_at = |t: usize| {
        move |e: DeviceError| {
            e.with_block(bid)
                .with_thread(t as u32)
                .with_instruction(clock)
        }
    };
    match i {
        Instr::Mov { dst, src } => {
            for &t in &lanes {
                let v = s.opv(t, src);
                s.set_reg(t, *dst, v);
            }
        }
        Instr::Special { dst, sr } => {
            for &t in &lanes {
                let v = match sr {
                    SpecialReg::TidX => t as u32,
                    SpecialReg::CtaidX => s.block_id,
                    SpecialReg::NtidX => env.block_dim,
                    SpecialReg::NctaidX => env.grid_dim,
                };
                s.set_reg(t, *dst, v);
            }
        }
        Instr::Alu { op, dst, a, b } => {
            for &t in &lanes {
                let v = ref_alu(*op, s.opv(t, a), s.opv(t, b));
                s.set_reg(t, *dst, v);
            }
        }
        Instr::Mad {
            float,
            dst,
            a,
            b,
            c,
        } => {
            for &t in &lanes {
                let (x, y, z) = (s.opv(t, a), s.opv(t, b), s.opv(t, c));
                let v = if *float {
                    (f32::from_bits(x) * f32::from_bits(y) + f32::from_bits(z)).to_bits()
                } else {
                    x.wrapping_mul(y).wrapping_add(z)
                };
                s.set_reg(t, *dst, v);
            }
        }
        Instr::Unary { op, dst, a } => {
            for &t in &lanes {
                let x = s.opv(t, a);
                let v = match op {
                    UnaryOp::FRsqrt => (1.0 / f32::from_bits(x).sqrt()).to_bits(),
                    UnaryOp::FNeg => (-f32::from_bits(x)).to_bits(),
                    UnaryOp::U2F => (x as f32).to_bits(),
                    UnaryOp::F2U => f32::from_bits(x) as u32,
                };
                s.set_reg(t, *dst, v);
            }
        }
        Instr::Setp { dst, cmp, a, b } => {
            for &t in &lanes {
                let (x, y) = (s.opv(t, a), s.opv(t, b));
                let v = match cmp {
                    CmpOp::ULt => x < y,
                    CmpOp::UGe => x >= y,
                    CmpOp::UEq => x == y,
                    CmpOp::UNe => x != y,
                    CmpOp::FLt => f32::from_bits(x) < f32::from_bits(y),
                };
                s.preds[t * N_PREDS as usize + dst.0 as usize] = v;
            }
        }
        Instr::Ld {
            dsts,
            space,
            base,
            offset,
        } => {
            let n_words = dsts.len() as u64;
            let mut addrs = vec![None; WARP];
            for &t in &lanes {
                let mut addr = s.reg(t, *base).wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock, addr);
                }
                addrs[t % WARP] = Some(addr);
                if matches!(space, MemSpace::Global | MemSpace::Texture)
                    && !addr.is_multiple_of(4 * n_words)
                {
                    return Err(fault_at(t)(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words,
                    })));
                }
                for (w, d) in dsts.iter().enumerate() {
                    let a = addr + 4 * w as u64;
                    let v = match space {
                        MemSpace::Global | MemSpace::Texture => gmem.load_u32(a),
                        MemSpace::Shared => s.smem_check(a).map(|()| {
                            let a = a as usize;
                            u32::from_le_bytes(s.smem[a..a + 4].try_into().unwrap())
                        }),
                    }
                    .map_err(fault_at(t))?;
                    s.set_reg(t, *d, v);
                }
            }
            return Ok(want_trace.then(|| MemTrace {
                space: *space,
                is_load: true,
                width: AccessWidth::from_bytes(4 * n_words as u32).unwrap(),
                addrs,
            }));
        }
        Instr::St {
            srcs,
            space,
            base,
            offset,
        } => {
            let n_words = srcs.len() as u64;
            let mut addrs = vec![None; WARP];
            for &t in &lanes {
                let mut addr = s.reg(t, *base).wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock, addr);
                }
                addrs[t % WARP] = Some(addr);
                if *space == MemSpace::Global && !addr.is_multiple_of(4 * n_words) {
                    return Err(fault_at(t)(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words,
                    })));
                }
                for (w, src) in srcs.iter().enumerate() {
                    let v = s.opv(t, src);
                    let a = addr + 4 * w as u64;
                    match space {
                        MemSpace::Global => gmem.store_u32(a, v),
                        MemSpace::Shared => s.smem_check(a).map(|()| {
                            let a = a as usize;
                            s.smem[a..a + 4].copy_from_slice(&v.to_le_bytes());
                        }),
                        MemSpace::Texture => Err(DeviceError::new(FaultKind::ReadOnlyWrite {
                            space: MemSpace::Texture,
                            addr,
                        })),
                    }
                    .map_err(fault_at(t))?;
                }
            }
            return Ok(want_trace.then(|| MemTrace {
                space: *space,
                is_load: false,
                width: AccessWidth::from_bytes(4 * n_words as u32).unwrap(),
                addrs,
            }));
        }
        Instr::Clock { dst } => {
            for &t in &lanes {
                s.set_reg(t, *dst, clock as u32);
            }
        }
    }
    Ok(None)
}

/// The reference's predicate evaluation: lanes of `mask` that are real
/// threads and whose predicate (negated if asked) holds.
fn ref_pred_mask(s: &RefBlock, warp: usize, mask: u32, p: Pred, negate: bool) -> u32 {
    ref_lanes(mask, warp, s.n_threads)
        .into_iter()
        .filter(|&t| s.pred(t, p) != negate)
        .fold(0, |m, t| m | 1 << (t % WARP))
}

// ---------------------------------------------------------------------------
// Random programs and machine states
// ---------------------------------------------------------------------------

/// Float immediates the lane loop must carry bit-exactly.
const FLOATS: [u32; 12] = [
    0x7fc0_1234, // quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0xffc0_0000, // negative quiet NaN
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x8000_0000, // -0.0
    0x0000_0000, // +0.0
    0x3f80_0000, // 1.0
    0xc020_0000, // -2.5
    0x7f00_0000, // 1.7e38
    0x0000_0400, // subnormal
    0x3f00_0000, // 0.5
];

struct Gen {
    rng: SplitMix64,
    /// Base of an initialized 256-byte global buffer.
    init: u32,
    /// Base of a never-written 64-byte global buffer.
    poison: u32,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A register value: raw bits, float specials, small integers, or an
    /// address that is valid, misaligned, uninitialized, in a redzone or out
    /// of bounds.
    fn value(&mut self) -> u32 {
        match self.below(9) {
            0 => self.rng.next_u32(),
            1 => self.init + 4 * self.below(64) as u32,
            2 => self.init + 16 * self.below(16) as u32,
            3 => self.poison + 4 * self.below(16) as u32,
            4 => 4 * self.below(u64::from(SMEM_BYTES) / 4) as u32,
            // The last words of shared memory: vector accesses straddle the
            // end.
            5 => SMEM_BYTES - 4 * (1 + self.below(4) as u32),
            6 => self.pick(&FLOATS),
            7 => self.below(40) as u32,
            _ => self.below(4600) as u32,
        }
    }

    fn reg(&mut self) -> Reg {
        Reg(self.below(u64::from(N_REGS)) as u16)
    }

    fn operand(&mut self) -> Operand {
        match self.below(4) {
            0 | 1 => Operand::R(self.reg()),
            2 => Operand::ImmU(self.value()),
            _ => Operand::ImmF(f32::from_bits(self.pick(&FLOATS))),
        }
    }

    fn space(&mut self) -> MemSpace {
        self.pick(&[MemSpace::Global, MemSpace::Shared, MemSpace::Texture])
    }

    fn offset(&mut self) -> u32 {
        self.pick(&[0, 0, 0, 4, 8, 16, 2, 240, 4000])
    }

    fn mask(&mut self) -> u32 {
        match self.below(6) {
            0 | 1 => u32::MAX,
            2 => 0,
            3 => 1 << self.below(32),
            _ => self.rng.next_u32(),
        }
    }

    fn instr(&mut self) -> Instr {
        match self.below(9) {
            0 => Instr::Mov {
                dst: self.reg(),
                src: self.operand(),
            },
            1 => Instr::Special {
                dst: self.reg(),
                sr: self.pick(&[
                    SpecialReg::TidX,
                    SpecialReg::CtaidX,
                    SpecialReg::NtidX,
                    SpecialReg::NctaidX,
                ]),
            },
            2 => Instr::Alu {
                op: self.pick(&[
                    AluOp::FAdd,
                    AluOp::FSub,
                    AluOp::FMul,
                    AluOp::FMin,
                    AluOp::FMax,
                    AluOp::IAdd,
                    AluOp::ISub,
                    AluOp::IMul,
                    AluOp::IShl,
                    AluOp::IAnd,
                    AluOp::IMin,
                ]),
                dst: self.reg(),
                a: self.operand(),
                b: self.operand(),
            },
            3 => Instr::Mad {
                float: self.below(2) == 0,
                dst: self.reg(),
                a: self.operand(),
                b: self.operand(),
                c: self.operand(),
            },
            4 => Instr::Unary {
                op: self.pick(&[UnaryOp::FRsqrt, UnaryOp::FNeg, UnaryOp::U2F, UnaryOp::F2U]),
                dst: self.reg(),
                a: self.operand(),
            },
            5 => Instr::Setp {
                dst: Pred(self.below(u64::from(N_PREDS)) as u16),
                cmp: self.pick(&[CmpOp::ULt, CmpOp::UGe, CmpOp::UEq, CmpOp::UNe, CmpOp::FLt]),
                a: self.operand(),
                b: self.operand(),
            },
            6 => {
                let n = self.pick(&[1, 2, 4]);
                Instr::Ld {
                    dsts: (0..n).map(|_| self.reg()).collect(),
                    space: self.space(),
                    base: self.reg(),
                    offset: self.offset(),
                }
            }
            7 => {
                let n = self.pick(&[1, 2, 4]);
                Instr::St {
                    srcs: (0..n).map(|_| self.operand()).collect(),
                    space: self.space(),
                    base: self.reg(),
                    offset: self.offset(),
                }
            }
            _ => Instr::Clock { dst: self.reg() },
        }
    }
}

fn program() -> Program {
    Program {
        name: "lane_diff".into(),
        seqs: vec![Vec::new()],
        root: 0,
        n_params: N_PARAMS,
        n_regs: N_REGS,
        n_preds: N_PREDS,
        smem_bytes: SMEM_BYTES,
    }
}

/// Every observable of the two machines agrees.
fn same_state(
    ctx: &BlockCtx,
    gmem: &GlobalMemory,
    r: &RefBlock,
    rmem: &GlobalMemory,
    warps: usize,
) -> Result<(), String> {
    for t in 0..r.n_threads {
        for reg in 0..N_REGS {
            let (got, want) = (ctx.reg(t, Reg(reg)), r.reg(t, Reg(reg)));
            if got != want {
                return Err(format!("thread {t} r{reg}: {got:#010x} != {want:#010x}"));
            }
        }
        for p in 0..N_PREDS {
            if ctx.pred(t, Pred(p)) != r.pred(t, Pred(p)) {
                return Err(format!("thread {t} p{p} differs"));
            }
        }
    }
    for w in 0..=warps {
        for p in 0..N_PREDS {
            for negate in [false, true] {
                for mask in [u32::MAX, 0x5555_5555, 0x8000_0001] {
                    let got = pred_mask(ctx, w, mask, Pred(p), negate);
                    let want = ref_pred_mask(r, w, mask, Pred(p), negate);
                    if got != want {
                        return Err(format!(
                            "pred_mask(warp {w}, {mask:#x}, p{p}, {negate}): {got:#x} != {want:#x}"
                        ));
                    }
                }
            }
        }
    }
    if ctx.smem != r.smem {
        return Err("shared memory differs".into());
    }
    if gmem != rmem {
        return Err("global memory (data, shadow or ECC) differs".into());
    }
    Ok(())
}

/// Run one random program on both steppers, comparing after every step.
fn check_program(seed: u64, n_threads: usize, want_trace: bool) -> Result<(), String> {
    let mut gmem = GlobalMemory::new(4096);
    let init = gmem.alloc(256).expect("fits");
    let poison = gmem.alloc(64).expect("fits");
    let mut g = Gen {
        rng: SplitMix64::new(seed),
        init: init.0 as u32,
        poison: poison.0 as u32,
    };
    let bytes: Vec<u8> = (0..256).map(|_| g.rng.next_u32() as u8).collect();
    gmem.upload(init, &bytes).expect("upload");
    if g.below(4) == 0 {
        // A soft error somewhere in the initialized buffer.
        gmem.corrupt_bit(init.0 + g.below(256), g.below(8) as u8);
    }
    let mut rmem = gmem.clone();

    let block_id = g.below(4) as u32;
    let env = LaunchEnv {
        block_dim: n_threads as u32,
        grid_dim: 4,
    };
    let params = [g.value(), g.value()];
    let prog = program();
    let mut ctx = BlockCtx::new(&prog, block_id, n_threads, &params).expect("block");
    let mut r = RefBlock {
        block_id,
        n_threads,
        regs: vec![0; n_threads * N_REGS as usize],
        preds: vec![false; n_threads * N_PREDS as usize],
        smem: vec![0; SMEM_BYTES as usize],
    };
    for t in 0..n_threads {
        for reg in 0..N_REGS {
            // Parameters stay as bound; the rest start random.
            let v = if reg < N_PARAMS {
                params[reg as usize]
            } else {
                g.value()
            };
            r.set_reg(t, Reg(reg), v);
            if reg >= N_PARAMS {
                ctx.set_reg(t, Reg(reg), v);
            }
        }
    }
    for b in r.smem.iter_mut() {
        *b = g.rng.next_u32() as u8;
    }
    ctx.smem.clone_from(&r.smem);

    let warps = n_threads.div_ceil(WARP);
    let len = 1 + g.below(48);
    let plan = (g.below(3) == 0).then(|| {
        let mutation = if g.below(2) == 0 {
            Mutation::SetAddr(g.below(4600))
        } else {
            Mutation::AddrDelta(g.pick(&[-256, -4, -1, 1, 2, 4, 256]))
        };
        let at = if g.below(2) == 0 {
            ANY_INSTRUCTION
        } else {
            g.below(len)
        };
        FaultPlan::single(block_id, g.below(n_threads as u64) as u32, at, mutation)
    });
    same_state(&ctx, &gmem, &r, &rmem, warps)?;
    for k in 0..len {
        let i = g.instr();
        // Now and then address a warp past the block: nothing may happen.
        let warp = g.below(warps as u64 + 1) as usize;
        let mask = g.mask();
        let got = exec_instr(
            &i,
            &mut ctx,
            warp,
            mask,
            &env,
            &mut gmem,
            k,
            plan.as_ref(),
            want_trace,
        );
        let want = ref_step(
            &i,
            &mut r,
            warp,
            mask,
            &env,
            &mut rmem,
            k,
            plan.as_ref(),
            want_trace,
        );
        let step = format!("step {k}: warp {warp} mask {mask:#010x} {i:?}");
        if got != want {
            return Err(format!("{step}: result {got:?} != {want:?}"));
        }
        same_state(&ctx, &gmem, &r, &rmem, warps).map_err(|e| format!("{step}: {e}"))?;
        if got.is_err() {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Arbitrary block sizes: single lanes, partial warps, multi-warp blocks.
    #[test]
    fn lane_slices_match_the_per_lane_reference(
        seed in any::<u64>(),
        n_threads in 1usize..130,
        want_trace in any::<bool>(),
    ) {
        check_program(seed, n_threads, want_trace)?;
    }

    /// Whole-warp blocks, where every full-mask write takes the plain-store
    /// path instead of the masked blend.
    #[test]
    fn full_warps_match_the_per_lane_reference(
        seed in any::<u64>(),
        warps in 1usize..4,
        want_trace in any::<bool>(),
    ) {
        check_program(seed, warps * WARP, want_trace)?;
    }
}

/// The stepper exercises every fault class the reference can raise, so the
/// error comparisons above are not vacuous.
#[test]
fn random_programs_reach_every_fault_class() {
    let mut seen = [false; 5];
    for seed in 0..400u64 {
        let mut gmem = GlobalMemory::new(4096);
        let init = gmem.alloc(256).expect("fits");
        let poison = gmem.alloc(64).expect("fits");
        gmem.upload(init, &[7; 256]).expect("upload");
        for k in 0..8 {
            gmem.corrupt_bit(init.0 + 32 * k, 1);
        }
        let mut g = Gen {
            rng: SplitMix64::new(seed),
            init: init.0 as u32,
            poison: poison.0 as u32,
        };
        let prog = program();
        let mut ctx = BlockCtx::new(&prog, 0, 40, &[0, 0]).expect("block");
        for t in 0..40 {
            for reg in N_PARAMS..N_REGS {
                ctx.set_reg(t, Reg(reg), g.value());
            }
        }
        let env = LaunchEnv {
            block_dim: 40,
            grid_dim: 1,
        };
        let i = loop {
            let i = g.instr();
            if matches!(i, Instr::Ld { .. } | Instr::St { .. }) {
                break i;
            }
        };
        let live = live_lane_mask(40, 0);
        if let Err(e) = exec_instr(&i, &mut ctx, 0, live, &env, &mut gmem, 0, None, false) {
            assert!(e.site.block.is_some() && e.site.thread.is_some());
            let class = match e.kind {
                FaultKind::OutOfBounds { .. } => 0,
                FaultKind::Misaligned { .. } => 1,
                FaultKind::UninitializedRead { .. } => 2,
                FaultKind::EccMismatch { .. } => 3,
                FaultKind::ReadOnlyWrite { .. } => 4,
                other => panic!("unexpected fault {other:?}"),
            };
            seen[class] = true;
        }
    }
    assert_eq!(seen, [true; 5], "fault classes reached");
}
