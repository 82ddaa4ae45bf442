//! Micro-benchmarks: real wall-clock cost of the hot paths of this
//! implementation (as opposed to the virtual-clock experiment harnesses
//! in `src/bin/`). These guard against regressions in the code itself:
//! the checkpoint serializers, the codec, the fault path, the collapse
//! operation, and store commits.
//!
//! The harness is self-contained (`harness = false`): each case runs a
//! warmup batch, then enough iterations to pass a minimum measurement
//! window, and reports mean ns/iter. Run with
//! `cargo bench -p aurora-bench`.

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_sim::{Decoder, Encoder};
use aurora_vm::{CollapseMode, Prot, Vm, PAGE_SIZE};
use std::hint::black_box;
use std::time::Instant;

/// Measures `iter` on fresh state from `setup`, excluding setup time.
fn bench_batched<S, O>(name: &str, mut setup: impl FnMut() -> S, mut iter: impl FnMut(S) -> O) {
    // Warmup.
    for _ in 0..3 {
        black_box(iter(setup()));
    }
    let mut spent = std::time::Duration::ZERO;
    let mut iters = 0u64;
    while spent.as_millis() < 200 && iters < 10_000 {
        let state = setup();
        let t0 = Instant::now();
        black_box(iter(state));
        spent += t0.elapsed();
        iters += 1;
    }
    report(name, spent, iters);
}

/// Measures `iter` repeatedly against shared state.
fn bench_loop<O>(name: &str, mut iter: impl FnMut() -> O) {
    for _ in 0..10 {
        black_box(iter());
    }
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_millis() < 200 && iters < 1_000_000 {
        black_box(iter());
        iters += 1;
    }
    report(name, t0.elapsed(), iters);
}

fn report(name: &str, spent: std::time::Duration, iters: u64) {
    let per = spent.as_nanos() as f64 / iters.max(1) as f64;
    println!("{name:<40} {per:>12.0} ns/iter   ({iters} iters)");
}

fn bench_codec() {
    let payload = vec![0xABu8; 1024];
    bench_loop("codec/encode_1k_record", || {
        let mut e = Encoder::with_capacity(1100);
        e.record(0x10, 1, |e| {
            e.u64(42);
            e.bytes(&payload);
        });
        e.finish_vec()
    });

    let mut e = Encoder::new();
    e.record(0x10, 1, |enc| {
        enc.u64(42);
        enc.bytes(&vec![0xABu8; 1024]);
    });
    let bytes = e.finish_vec();
    bench_loop("codec/decode_1k_record", || {
        let mut d = Decoder::new(&bytes);
        let (_v, mut body) = d.record(0x10, 1).unwrap();
        (body.u64().unwrap(), body.bytes().unwrap().len())
    });
}

fn bench_vm() {
    bench_batched(
        "vm/write_fault_cow_break",
        || {
            let mut vm = Vm::new();
            let s = vm.create_space();
            let a = vm.mmap_anon(s, 64, Prot::RW).unwrap();
            vm.touch(s, a, 64 * PAGE_SIZE as u64).unwrap();
            vm.system_shadow(&[s]).unwrap();
            (vm, s, a)
        },
        |(mut vm, s, a)| {
            for i in 0..64u64 {
                vm.write(s, a + i * PAGE_SIZE as u64, &[1]).unwrap();
            }
            vm.stats.cow_breaks
        },
    );

    for (name, mode) in [
        ("vm/collapse_reversed", CollapseMode::Reversed),
        ("vm/collapse_forward", CollapseMode::Forward),
    ] {
        bench_batched(
            name,
            || {
                // Base with 512 pages, shadow with 16 dirty pages.
                let mut vm = Vm::new();
                let s = vm.create_space();
                let a = vm.mmap_anon(s, 512, Prot::RW).unwrap();
                vm.touch(s, a, 512 * PAGE_SIZE as u64).unwrap();
                vm.system_shadow(&[s]).unwrap();
                for i in 0..16u64 {
                    vm.write(s, a + i * PAGE_SIZE as u64, &[2]).unwrap();
                }
                vm.system_shadow(&[s]).unwrap();
                let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
                (vm, top)
            },
            |(mut vm, top)| vm.collapse_under(top, mode).unwrap(),
        );
    }
}

fn bench_checkpoint() {
    bench_batched(
        "sls/incremental_checkpoint_64p",
        || {
            let mut w = World::quickstart();
            let pid = w.sls.kernel.spawn("bench");
            let addr = w.dirty_region(pid, 64).unwrap();
            let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
            w.sls.sls_checkpoint(gid).unwrap();
            w.sls.sls_barrier(gid).unwrap();
            w.sls.kernel.mem_touch(pid, addr, 64 * PAGE_SIZE as u64).unwrap();
            (w, gid)
        },
        |(mut w, gid)| {
            let cp = w.sls.sls_checkpoint(gid).unwrap();
            // Exercise the per-stage accounting introduced with the
            // staged pipeline; the sum must be consistent to be useful.
            (cp.pages_flushed, cp.stage_total_ns())
        },
    );
}

fn bench_store() {
    use aurora_objstore::{ObjectKind, ObjectStore, PAGE};
    use aurora_sim::cost::Charge;
    use aurora_sim::{Clock, CostModel};
    use aurora_storage::testbed_array;

    bench_batched(
        "store/write_pages_16x1p_commit",
        || {
            let clock = Clock::new();
            let dev = testbed_array(&clock, 1 << 26);
            let mut s =
                ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 1024).unwrap();
            let oid = s.alloc_oid();
            s.create_object(oid, ObjectKind::Memory).unwrap();
            (s, oid)
        },
        |(mut s, oid)| {
            let page = aurora_objstore::PageRef::detached([7u8; 4096]);
            for pi in 0..16 {
                s.write_pages(oid, &[(pi, page.clone())]).unwrap();
            }
            s.commit().unwrap().epoch
        },
    );

    bench_batched(
        "store/write_pages_batch_commit_16p",
        || {
            let clock = Clock::new();
            let dev = testbed_array(&clock, 1 << 26);
            let mut s =
                ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 1024).unwrap();
            let oid = s.alloc_oid();
            s.create_object(oid, ObjectKind::Memory).unwrap();
            let pages: Vec<(u64, aurora_objstore::PageRef)> = (0..16)
                .map(|pi| (pi, aurora_objstore::PageRef::detached([7u8; PAGE])))
                .collect();
            (s, oid, pages)
        },
        |(mut s, oid, pages)| {
            s.write_pages(oid, &pages).unwrap();
            s.commit().unwrap().epoch
        },
    );

    let clock = Clock::new();
    let dev = testbed_array(&clock, 1 << 26);
    let mut s = ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 1024).unwrap();
    let j = s.alloc_oid();
    s.create_journal(j, 4 * 1024).unwrap();
    let data = vec![3u8; 4000];
    bench_loop("store/journal_append_4k", || {
        if s.journal_stats(j).unwrap().used + 4100 > s.journal_stats(j).unwrap().capacity {
            s.journal_truncate(j).unwrap();
        }
        s.journal_append(j, &data).unwrap()
    });
}

fn bench_restore() {
    bench_batched(
        "sls/lazy_restore",
        || {
            let mut w = World::quickstart();
            let pid = w.sls.kernel.spawn("bench");
            w.dirty_region(pid, 256).unwrap();
            let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
            w.sls.sls_checkpoint(gid).unwrap();
            w.sls.sls_barrier(gid).unwrap();
            (w, gid)
        },
        |(mut w, gid)| w.sls.sls_restore(gid, None, RestoreMode::Lazy).unwrap().pids.len(),
    );
}

fn main() {
    println!("{:<40} {:>12}", "benchmark", "mean");
    bench_codec();
    bench_vm();
    bench_checkpoint();
    bench_store();
    bench_restore();
}
