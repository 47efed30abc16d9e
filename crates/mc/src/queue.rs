//! Per-application transaction queues.
//!
//! The controller keeps one FIFO per application. Scheduling policies pick
//! *which application* to serve next; within an application, requests are
//! served oldest-first among the *issuable* ones inside a bounded
//! scheduling window — mirroring a real controller's transaction queue,
//! which reorders around bank-timing stalls regardless of policy.

use std::collections::VecDeque;

use bwpart_dram::RowLocation;

use crate::request::MemRequest;

/// One queue slot: the request and its location, decoded once when it was
/// queued.
#[derive(Debug, Clone, Copy)]
struct Slot {
    req: MemRequest,
    loc: RowLocation,
}

/// Per-application FIFO queues with occupancy accounting.
#[derive(Debug, Clone)]
pub struct AppQueues {
    queues: Vec<VecDeque<Slot>>,
    total: usize,
    /// High-water mark of total occupancy (diagnostics).
    peak: usize,
}

impl AppQueues {
    /// Create queues for `apps` applications. Each FIFO reserves 64 slots
    /// up front, so that [`push`](Self::push) does not reallocate once a
    /// run is warm: the deepest per-application queue in 5 M-cycle runs
    /// of 16 mixes under every policy, at 4 to 16 cores with the LLC on
    /// and off, held 43 requests. A deeper queue still works; its FIFO
    /// grows. A slot is 48 bytes (the 32-byte request and its 16-byte
    /// location), so each application's reserved ring takes 3 KB.
    pub fn new(apps: usize) -> Self {
        AppQueues {
            queues: (0..apps).map(|_| VecDeque::with_capacity(64)).collect(),
            total: 0,
            peak: 0,
        }
    }

    /// Number of applications.
    pub fn apps(&self) -> usize {
        self.queues.len()
    }

    /// Append a request, decoded to `loc`, to its application's FIFO.
    ///
    /// # Panics
    /// Panics if the request's application index is out of range.
    pub fn push(&mut self, req: MemRequest, loc: RowLocation) {
        self.queues[req.app].push_back(Slot { req, loc });
        self.total += 1;
        self.peak = self.peak.max(self.total);
    }

    /// The oldest pending request of `app`, if any.
    pub fn head(&self, app: usize) -> Option<&MemRequest> {
        self.queues[app].front().map(|s| &s.req)
    }

    /// Remove and return `app`'s head request.
    pub fn pop(&mut self, app: usize) -> Option<MemRequest> {
        let r = self.queues[app].pop_front();
        if r.is_some() {
            self.total -= 1;
        }
        r.map(|s| s.req)
    }

    /// The request at position `idx` in `app`'s FIFO (0 = head).
    pub fn get(&self, app: usize, idx: usize) -> Option<&MemRequest> {
        self.queues[app].get(idx).map(|s| &s.req)
    }

    /// The request at position `idx` in `app`'s FIFO and its location.
    pub fn slot(&self, app: usize, idx: usize) -> Option<(MemRequest, RowLocation)> {
        self.queues[app].get(idx).map(|s| (s.req, s.loc))
    }

    /// Remove and return the request at position `idx` in `app`'s FIFO
    /// (scheduling-window out-of-order service), with its location: the
    /// controller issues the request to it.
    pub fn remove(&mut self, app: usize, idx: usize) -> Option<(MemRequest, RowLocation)> {
        let r = self.queues[app].remove(idx);
        if r.is_some() {
            self.total -= 1;
        }
        r.map(|s| (s.req, s.loc))
    }

    /// Pending requests for `app`.
    pub fn len(&self, app: usize) -> usize {
        self.queues[app].len()
    }

    /// Total pending requests across all applications.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// True when no application has pending requests.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Highest total occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Iterator over application indices that have pending requests.
    pub fn pending_apps(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwpart_dram::{AddressMapper, DramConfig};

    /// Queue `req` with the location DDR2-400 decodes it to.
    fn push(q: &mut AppQueues, req: MemRequest) {
        let loc = AddressMapper::new(&DramConfig::ddr2_400()).decode(req.addr);
        q.push(req, loc.into());
    }

    #[test]
    fn a_slot_is_a_request_and_four_u32s() {
        assert_eq!(std::mem::size_of::<MemRequest>(), 32);
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    #[test]
    fn fifo_order_within_app() {
        let mut q = AppQueues::new(2);
        push(&mut q, MemRequest::read(0, 0x40, 1));
        push(&mut q, MemRequest::read(0, 0x80, 2));
        push(&mut q, MemRequest::read(1, 0xC0, 3));
        assert_eq!(q.total_len(), 3);
        assert_eq!(q.len(0), 2);
        assert_eq!(q.head(0).unwrap().addr, 0x40);
        assert_eq!(q.pop(0).unwrap().addr, 0x40);
        assert_eq!(q.head(0).unwrap().addr, 0x80);
        assert_eq!(q.total_len(), 2);
    }

    #[test]
    fn pending_apps_lists_nonempty_only() {
        let mut q = AppQueues::new(4);
        push(&mut q, MemRequest::read(1, 0x40, 1));
        push(&mut q, MemRequest::read(3, 0x80, 1));
        let pending: Vec<usize> = q.pending_apps().collect();
        assert_eq!(pending, vec![1, 3]);
        q.pop(1);
        let pending: Vec<usize> = q.pending_apps().collect();
        assert_eq!(pending, vec![3]);
    }

    #[test]
    fn pop_empty_returns_none() {
        let mut q = AppQueues::new(1);
        assert!(q.pop(0).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = AppQueues::new(1);
        for i in 0..5 {
            push(&mut q, MemRequest::read(0, i * 64, i));
        }
        for _ in 0..5 {
            q.pop(0);
        }
        push(&mut q, MemRequest::read(0, 0, 9));
        assert_eq!(q.peak_occupancy(), 5);
    }

    #[test]
    fn get_in_and_out_of_bounds() {
        let mut q = AppQueues::new(2);
        push(&mut q, MemRequest::read(0, 0x40, 1));
        push(&mut q, MemRequest::read(0, 0x80, 2));
        assert_eq!(q.get(0, 0).unwrap().addr, 0x40);
        assert_eq!(q.get(0, 1).unwrap().addr, 0x80);
        // One past the tail, far past the tail, and an empty queue.
        assert!(q.get(0, 2).is_none());
        assert!(q.get(0, usize::MAX).is_none());
        assert!(q.get(1, 0).is_none());
    }

    #[test]
    fn remove_out_of_bounds_returns_none_and_keeps_accounting() {
        let mut q = AppQueues::new(2);
        push(&mut q, MemRequest::read(0, 0x40, 1));
        assert!(q.remove(0, 1).is_none());
        assert!(q.remove(0, 7).is_none());
        assert!(q.remove(1, 0).is_none());
        // A failed removal must not corrupt the occupancy counters.
        assert_eq!(q.total_len(), 1);
        assert_eq!(q.len(0), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interior_removal_preserves_fifo_order_of_survivors() {
        let mut q = AppQueues::new(1);
        for (i, addr) in [0x40u64, 0x80, 0xC0, 0x100, 0x140].iter().enumerate() {
            push(&mut q, MemRequest::read(0, *addr, i as u64));
        }
        // Scheduling-window service plucks position 2 from the interior.
        let (taken, _) = q.remove(0, 2).unwrap();
        assert_eq!(taken.addr, 0xC0);
        assert_eq!(q.total_len(), 4);
        // Survivors keep their relative order and re-index contiguously.
        let order: Vec<u64> = (0..q.len(0)).map(|i| q.get(0, i).unwrap().addr).collect();
        assert_eq!(order, vec![0x40, 0x80, 0x100, 0x140]);
        // Removing the (new) head equals pop.
        assert_eq!(q.remove(0, 0).unwrap().0.addr, 0x40);
        assert_eq!(q.head(0).unwrap().addr, 0x80);
        assert_eq!(q.total_len(), 3);
    }

    #[test]
    #[should_panic]
    fn push_out_of_range_panics() {
        let mut q = AppQueues::new(2);
        push(&mut q, MemRequest::read(2, 0, 0));
    }
}
