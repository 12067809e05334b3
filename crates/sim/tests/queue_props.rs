//! Reference-model property test for `EventQueue`.
//!
//! The simulator's determinism, and the exactness of eliding duplicate
//! core wake-ups, rest on one delivery order: by time, and among equal
//! times by push order. Random interleavings of pushes and pops, with
//! few distinct times so most instants collide, are replayed against a
//! map sorted by `(time, push sequence)`; every pop, `peek_time` and
//! `len` must agree with it.

use std::collections::BTreeMap;

use emcc_sim::{EventQueue, Time};
use proptest::prelude::*;

proptest! {
    #[test]
    fn delivers_in_time_then_push_order(
        ops in prop::collection::vec((0u8..3, 0u64..5), 1..=400),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(Time, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        // Pushes land at or after the last popped time, as in a run.
        let mut clock = Time::ZERO;
        for (kind, delta) in ops {
            if kind == 0 {
                let want = model.pop_first().map(|((t, _), v)| (t, v));
                let got = q.pop();
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    clock = t;
                }
            } else {
                seq += 1;
                let t = clock + Time::from_ns(delta);
                q.push(t, seq);
                model.insert((t, seq), seq);
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(t, _)| t));
        }
        while let Some((t, v)) = q.pop() {
            prop_assert_eq!(Some((t, v)), model.pop_first().map(|((t, _), v)| (t, v)));
        }
        prop_assert!(model.is_empty());
    }
}
