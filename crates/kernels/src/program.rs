//! The frame kernels, built and lowered once per process.
//!
//! A frame's force, chunk-force and integration kernels are pure functions
//! of a small fixed key: the [`OptLevel`] for the two force kernels, the
//! [`Layout`] for integration. Rebuilding and re-lowering them on every
//! frame attempt is loop-invariant work in the frame loop, so each is built
//! and lowered on first use and shared, immutable, by every later frame,
//! retry and fleet worker. The key space is 6 levels and 5 layouts, so each
//! kernel is backed by one array of [`OnceLock`]s indexed by its key: no
//! map, no lock on the hit path, no eviction.
//!
//! Sharing is bit-exact: the lowered [`Program`] is a pure function of its
//! key, so a cached program equals a fresh `lower(&build_…(…))` (the tests
//! check every key).
//!
//! Analysis, synthesis and the frame model build their own kernels through
//! [`build_force_kernel`] and friends; only the frame paths use this cache.

use std::sync::OnceLock;

use gpu_sim::ir::lower::{lower, Program};
use particle_layouts::Layout;

use crate::chunk::build_chunk_force_kernel;
use crate::force::{build_force_kernel, OptLevel};
use crate::integrate::build_integrate_kernel;

const LEVELS: usize = OptLevel::ALL.len();
const LAYOUTS: usize = Layout::ALL.len();

static FORCE: [OnceLock<Program>; LEVELS] = [const { OnceLock::new() }; LEVELS];
static CHUNK: [OnceLock<Program>; LEVELS] = [const { OnceLock::new() }; LEVELS];
static INTEGRATE: [OnceLock<Program>; LAYOUTS] = [const { OnceLock::new() }; LAYOUTS];

impl OptLevel {
    /// The lowered force kernel of this level (see [`build_force_kernel`]),
    /// built on first use and shared for the life of the process.
    pub fn force_program(self) -> &'static Program {
        FORCE[self as usize].get_or_init(|| lower(&build_force_kernel(self.config())))
    }

    /// The lowered chunk-force kernel of this level (see
    /// [`build_chunk_force_kernel`]), built on first use and shared for the
    /// life of the process.
    pub fn chunk_program(self) -> &'static Program {
        CHUNK[self as usize].get_or_init(|| lower(&build_chunk_force_kernel(self.config())))
    }
}

/// The lowered integration kernel of `layout` (see
/// [`build_integrate_kernel`]), built on first use and shared for the life
/// of the process.
pub fn integrate_program(layout: Layout) -> &'static Program {
    INTEGRATE[layout as usize].get_or_init(|| lower(&build_integrate_kernel(layout)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_programs_equal_fresh_lowerings() {
        for level in OptLevel::ALL {
            let cfg = level.config();
            assert_eq!(level.force_program(), &lower(&build_force_kernel(cfg)));
            assert_eq!(
                level.chunk_program(),
                &lower(&build_chunk_force_kernel(cfg))
            );
        }
        for layout in Layout::ALL {
            assert_eq!(
                integrate_program(layout),
                &lower(&build_integrate_kernel(layout))
            );
        }
    }
}
