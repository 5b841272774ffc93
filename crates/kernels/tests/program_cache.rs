//! First use of the program cache under contention. This binary is its own
//! process and no other test here touches the cache, so the threads below
//! race on the very first build of every key.

use std::sync::Barrier;

use gpu_kernels::force::OptLevel;
use gpu_kernels::program::integrate_program;
use gpu_sim::ir::lower::Program;
use particle_layouts::Layout;

/// Every lookup of one run, as addresses, in key order.
fn lookups() -> Vec<*const Program> {
    let mut out = Vec::new();
    for level in OptLevel::ALL {
        out.push(level.force_program() as *const Program);
        out.push(level.chunk_program() as *const Program);
    }
    for layout in Layout::ALL {
        out.push(integrate_program(layout) as *const Program);
    }
    out
}

#[test]
fn racing_first_use_shares_one_program_per_key() {
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            start.wait();
            // Raw pointers are not `Send`; carry the addresses as integers.
            lookups()
                .into_iter()
                .map(|p| p as usize)
                .collect::<Vec<_>>()
        };
        let a = s.spawn(run);
        let b = s.spawn(run);
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    assert_eq!(a, b, "two threads got different programs for one key");
    let again: Vec<usize> = lookups().into_iter().map(|p| p as usize).collect();
    assert_eq!(a, again, "a later lookup got a different program");
}
