//! Deterministic time-ordered event queue.

use crate::hash::FastHashMap;
use crate::time::Time;

/// Heap fan-out (children per node).
const ARITY: usize = 4;

/// A time-ordered priority queue of simulation events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were pushed (stable FIFO tie-breaking), which makes simulations
/// deterministic regardless of heap internals.
///
/// # Layout
///
/// The queue is a bucket queue: a 4-ary min-heap over the *distinct*
/// pending timestamps, each owning a FIFO bucket of payloads. Simulated
/// hardware schedules many events at the same instant (same-cycle core
/// issues, simultaneous NoC arrivals), so the heap — the only
/// logarithmic part — sees one entry per instant rather than one per
/// event. A bucket is a singly linked list through a slab of nodes, one
/// node per pending event: the heap entry names its first node and a
/// time→last-node map finds the append point, so a same-instant push
/// links one node and a pop unlinks the first. Nodes recycle through a
/// LIFO free-list, so steady-state churn touches no allocator and
/// reuses the node just popped. FIFO order within a bucket *is* push
/// order, which makes delivery exactly `(time, push sequence)` ordered
/// without storing a sequence number per event.
///
/// The payload type `E` carries the event itself; it needs no ordering of
/// its own.
///
/// # Examples
///
/// ```
/// use emcc_sim::{EventQueue, Time};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { DramDone, NocArrive }
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(30), Ev::DramDone);
/// q.push(Time::from_ns(8), Ev::NocArrive);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (Time::from_ns(8), Ev::NocArrive));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// 4-ary min-heap of `(distinct time, first node)`; `heap[0]` is the
    /// earliest pending instant.
    heap: Vec<(Time, u32)>,
    /// Pending instant → the last node of its list.
    index: FastHashMap<Time, u32>,
    /// Node slab; each pending instant's events form a list in push order.
    nodes: Vec<Node<E>>,
    /// Recycled node indices (LIFO keeps recently-touched nodes hot).
    free: Vec<u32>,
    /// Pending event count.
    len: usize,
    /// Events ever scheduled (`scheduled_total`).
    seq: u64,
}

/// One pending event and the next event of its instant.
#[derive(Debug)]
struct Node<E> {
    /// `Some` while pending.
    payload: Option<E>,
    next: u32,
}

/// End of an instant's list.
const NIL: u32 = u32::MAX;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            index: FastHashMap::default(),
            nodes: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    pub fn push(&mut self, time: Time, payload: E) {
        self.seq += 1;
        self.len += 1;
        let node = Node {
            payload: Some(payload),
            next: NIL,
        };
        let n = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "event slab full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        match self.index.entry(time) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.nodes[*e.get() as usize].next = n;
                e.insert(n);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(n);
                self.heap.push((time, n));
                let last = self.heap.len() - 1;
                Self::sift_up(&mut self.heap, last);
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let &(time, n) = self.heap.first()?;
        self.len -= 1;
        let node = &mut self.nodes[n as usize];
        let payload = node.payload.take().expect("listed node is pending");
        let next = node.next;
        self.free.push(n);
        if next == NIL {
            self.index.remove(&time);
            self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                Self::sift_down(&mut self.heap, 0);
            }
        } else {
            self.heap[0].1 = next;
        }
        Some((time, payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|&(t, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Moves `heap[i]` toward the root until its parent is earlier.
    /// Hole technique: the moving entry is held in a register and
    /// written once, so each level is one copy instead of a swap.
    fn sift_up(heap: &mut [(Time, u32)], mut i: usize) {
        let entry = heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if heap[parent].0 <= entry.0 {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = entry;
    }

    /// Moves `heap[i]` toward the leaves until all children are later.
    fn sift_down(heap: &mut [(Time, u32)], mut i: usize) {
        let len = heap.len();
        let entry = heap[i];
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut child = first;
            let mut child_key = heap[first].0;
            for (c, &(k, _)) in heap[first + 1..last].iter().enumerate() {
                if k < child_key {
                    child = first + 1 + c;
                    child_key = k;
                }
            }
            if entry.0 <= child_key {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = entry;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 'b');
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(9), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(3), ());
        q.push(Time::from_ns(2), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
        assert_eq!(q.pop().unwrap().0, Time::from_ns(2));
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
    }

    #[test]
    fn len_and_totals() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 10);
        q.push(Time::from_ns(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Time::from_ns(5), 5);
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn buckets_are_recycled() {
        // Steady-state churn against a bounded pending count must not
        // grow the node slab past its high-water mark.
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(Time::from_ns(i), i);
        }
        for round in 0..1_000u64 {
            q.push(Time::from_ns(100 + round), round);
            q.pop();
        }
        assert_eq!(q.len(), 8);
        assert!(
            q.nodes.len() <= 9,
            "node slab grew past its high-water mark: {} nodes",
            q.nodes.len()
        );
        assert_eq!(q.scheduled_total(), 1_008);
    }

    #[test]
    fn reinserting_a_popped_instant_starts_a_fresh_fifo() {
        // Same timestamp, drained and re-scheduled: the second round
        // must not see stale cursor state from the recycled bucket.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Time::from_ns(5), 3);
        q.push(Time::from_ns(5), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.pop().is_none());
    }

    #[test]
    fn partially_drained_bucket_keeps_fifo_after_more_pushes() {
        // Pushing into an instant that is already being consumed must
        // append after the unconsumed items.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ns(5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_releases_pending_and_consumed_events() {
        // Owned payloads: a partially-drained bucket must drop only the
        // unconsumed tail (consumed items were moved out by pop).
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), String::from("a"));
        q.push(Time::from_ns(1), String::from("b"));
        q.push(Time::from_ns(1), String::from("c"));
        q.push(Time::from_ns(9), String::from("z"));
        assert_eq!(q.pop().unwrap().1, "a");
        drop(q); // Miri/leak-check would flag a double- or missed drop.
    }

    #[test]
    fn random_schedule_pops_in_push_order_per_instant() {
        // Deterministic pseudo-random schedule with heavy time collisions:
        // the pop sequence must be globally time-sorted and FIFO within
        // each instant (the exact contract the old BinaryHeap gave).
        let mut q = EventQueue::new();
        let mut x = 0x1234_5678u64;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 64; // dense collisions
            q.push(Time::from_ns(t), i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        for (t, i) in expect {
            let (pt, pi) = q.pop().unwrap();
            assert_eq!((pt, pi), (Time::from_ns(t), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_random_push_pop_matches_reference() {
        // Harder schedule than the all-push-then-pop case: interleave
        // pushes and pops so buckets recycle mid-run, and check against
        // a straightforward sorted reference.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9e37_79b9u64;
        let mut clock = 0u64; // pops only move forward in time
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = clock + x % 16;
            q.push(Time::from_ns(t), i);
            reference.push((t, i));
            if !x.is_multiple_of(3) {
                if let Some((pt, pi)) = q.pop() {
                    clock = pt.as_ns_f64() as u64;
                    popped.push((clock, pi));
                }
            }
        }
        while let Some((pt, pi)) = q.pop() {
            popped.push((pt.as_ns_f64() as u64, pi));
        }
        reference.sort_by_key(|&(t, i)| (t, i));
        assert_eq!(popped, reference);
    }
}
