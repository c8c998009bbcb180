//! Randomized property tests for the work-stealing pool's primitives
//! (`rfd_flowgraph::pool`): the steal deque must neither lose nor
//! duplicate items under concurrent stealing. (The pool's injector
//! channel is private to the pool; its FIFO and close properties are unit
//! tests beside it.)

use rfd_flowgraph::pool::StealDeque;
use rfd_integration::seeded_cases;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every item pushed to a steal deque comes out exactly once, across the
/// owner's pops and any number of concurrent thieves.
#[test]
fn steal_deque_neither_loses_nor_duplicates() {
    seeded_cases(0x5DEC_0001, 30, |rng| {
        let n_items = 200 + rng.next_range(800);
        let n_thieves = 1 + rng.next_range(3) as usize;
        let deque = Arc::new(StealDeque::new());
        let done = Arc::new(AtomicBool::new(false));

        let thieves: Vec<_> = (0..n_thieves)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    // Keep stealing until the owner says the deque is dead
                    // *and* a final sweep comes back empty.
                    loop {
                        let batch = deque.steal_half();
                        if batch.is_empty() {
                            if done.load(Ordering::Acquire) && deque.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        } else {
                            got.extend(batch);
                        }
                    }
                    got
                })
            })
            .collect();

        // The owner interleaves pushes (sometimes in batches) with pops.
        let mut owner_got: Vec<u64> = Vec::new();
        let mut next = 0u64;
        while next < n_items {
            let burst = 1 + rng.next_range(16);
            let burst = burst.min(n_items - next);
            if rng.next_range(2) == 0 {
                deque.push_batch((next..next + burst).collect());
            } else {
                for v in next..next + burst {
                    deque.push(v);
                }
            }
            next += burst;
            for _ in 0..rng.next_range(8) {
                if let Some(v) = deque.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = deque.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all = owner_got;
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..n_items).collect();
        assert_eq!(
            all, expect,
            "items lost or duplicated ({} items, {} thieves)",
            n_items, n_thieves
        );
    });
}

/// The owner sees its own pushes oldest-first; thieves take the *newest*
/// half (so the owner keeps the items it is about to reach), and a stolen
/// batch preserves its internal order.
#[test]
fn steal_deque_owner_pops_fifo_when_uncontended() {
    let deque: StealDeque<u32> = StealDeque::new();
    for v in 0..100 {
        deque.push(v);
    }
    let stolen = deque.steal_half();
    assert_eq!(stolen, (50..100).collect::<Vec<u32>>());
    // The owner continues oldest-first over everything that's left.
    let mut got = Vec::new();
    while let Some(v) = deque.pop() {
        got.push(v);
    }
    assert_eq!(got, (0..50).collect::<Vec<u32>>());
}
