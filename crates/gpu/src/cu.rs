//! Compute-unit issue model.

use std::collections::VecDeque;

use wsg_sim::Cycle;

/// One memory operation issued by a CU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryOp {
    /// Virtual byte address touched.
    pub vaddr: u64,
    /// Whether this is a load (`true`) or store (`false`).
    pub is_read: bool,
    /// Compute cycles the CU spends before issuing this op (models the
    /// arithmetic between memory instructions; an op-level "gap").
    pub gap: Cycle,
}

impl MemoryOp {
    /// A read with the given pre-issue gap.
    pub fn read(vaddr: u64, gap: Cycle) -> Self {
        Self {
            vaddr,
            is_read: true,
            gap,
        }
    }

    /// A write with the given pre-issue gap.
    pub fn write(vaddr: u64, gap: Cycle) -> Self {
        Self {
            vaddr,
            is_read: false,
            gap,
        }
    }
}

/// The memory-operation trace of one workgroup.
///
/// The simulator executes workloads trace-driven: a workgroup is the
/// sequence of coalesced memory operations its wavefronts issue, in order.
/// [`CuPipeline::push_workgroup`] keeps the trace itself (no per-op copy)
/// until its last op issues, so a generator should allocate `ops` at its
/// final length: any spare capacity stays resident for that long.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkgroupTrace {
    /// Operations in issue order.
    pub ops: Vec<MemoryOp>,
}

impl WorkgroupTrace {
    /// Creates a trace from operations.
    pub fn new(ops: Vec<MemoryOp>) -> Self {
        Self { ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<MemoryOp> for WorkgroupTrace {
    fn from_iter<I: IntoIterator<Item = MemoryOp>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

/// The issue pipeline of one compute unit.
///
/// A CU executes the workgroups assigned to it strictly in order,
/// issuing their memory operations as long as fewer than `max_outstanding`
/// are in flight (modelling wavefront-level parallelism hiding memory
/// latency). The pipeline owns the assigned [`WorkgroupTrace`]s as given:
/// it reads the issuing trace through a cursor and drops each trace once
/// its last op has issued, so handing work to a CU copies no op. The
/// issuing trace is held apart from the queue behind it, so finding the
/// next op costs the same loads as popping a flat op queue would. The
/// caller (the system simulator) drives the pipeline:
///
/// 1. [`CuPipeline::next_issue`] — when (and what) the CU can issue next;
/// 2. [`CuPipeline::issue`] — commit the issue at a given cycle;
/// 3. [`CuPipeline::complete`] — a memory op finished.
///
/// # Example
///
/// ```
/// use wsg_gpu::{CuPipeline, MemoryOp, WorkgroupTrace};
///
/// let mut cu = CuPipeline::new(1);
/// cu.push_workgroup(WorkgroupTrace::new(vec![
///     MemoryOp::read(0x0, 0),
///     MemoryOp::read(0x40, 2),
/// ]));
/// let (t, op) = cu.next_issue(10).unwrap();
/// assert_eq!((t, op.vaddr), (10, 0x0));
/// cu.issue(t);
/// assert!(cu.next_issue(10).is_none(), "outstanding limit reached");
/// cu.complete();
/// let (t, op) = cu.next_issue(50).unwrap();
/// assert_eq!((t, op.vaddr), (52, 0x40)); // 2-cycle gap before issue
/// ```
#[derive(Debug, Clone)]
pub struct CuPipeline {
    /// The issuing workgroup's ops. Empty only when `queued` is empty too.
    current: Vec<MemoryOp>,
    /// Index of the next op to issue in `current`.
    cursor: usize,
    /// The workgroups after `current`, in issue order, none of them empty.
    queued: VecDeque<WorkgroupTrace>,
    /// Ops queued across all workgroups but not yet issued.
    pending: usize,
    outstanding: usize,
    max_outstanding: usize,
    issued: u64,
    completed: u64,
    finish_time: Cycle,
}

impl CuPipeline {
    /// Creates an idle CU allowing `max_outstanding` in-flight ops.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn new(max_outstanding: usize) -> Self {
        assert!(max_outstanding > 0, "need at least one outstanding slot");
        Self {
            current: Vec::new(),
            cursor: 0,
            queued: VecDeque::new(),
            pending: 0,
            outstanding: 0,
            max_outstanding,
            issued: 0,
            completed: 0,
            finish_time: 0,
        }
    }

    /// Appends a workgroup to this CU's queue, taking ownership of its
    /// trace. An empty workgroup is dropped: it has nothing to issue.
    pub fn push_workgroup(&mut self, wg: WorkgroupTrace) {
        if wg.is_empty() {
            return;
        }
        self.pending += wg.len();
        if self.current.is_empty() {
            self.current = wg.ops;
        } else {
            self.queued.push_back(wg);
        }
    }

    /// If the CU can issue at or after `now`, returns `(issue_time, op)`.
    /// The issue time accounts for the op's compute gap. Returns `None` when
    /// the outstanding limit is reached or no ops are pending.
    pub fn next_issue(&self, now: Cycle) -> Option<(Cycle, MemoryOp)> {
        if self.outstanding >= self.max_outstanding {
            return None;
        }
        let op = *self.current.get(self.cursor)?;
        Some((now + op.gap, op))
    }

    /// Commits the issue previously returned by [`CuPipeline::next_issue`].
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to issue or the outstanding limit is
    /// reached.
    pub fn issue(&mut self, at: Cycle) -> MemoryOp {
        assert!(
            self.outstanding < self.max_outstanding,
            "issue beyond outstanding limit"
        );
        #[expect(
            clippy::expect_used,
            reason = "panicking here is the documented contract: callers must gate on `next_issue` first"
        )]
        let op = *self
            .current
            .get(self.cursor)
            .expect("no pending op to issue");
        self.cursor += 1;
        self.pending -= 1;
        if self.cursor == self.current.len() {
            // The workgroup is fully issued: drop it, start the next.
            self.current = self.queued.pop_front().unwrap_or_default().ops;
            self.cursor = 0;
        }
        self.outstanding += 1;
        self.issued += 1;
        self.finish_time = self.finish_time.max(at);
        op
    }

    /// Records the completion of one in-flight op at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if no op is in flight.
    pub fn complete_at(&mut self, at: Cycle) {
        assert!(self.outstanding > 0, "completion without in-flight op");
        self.outstanding -= 1;
        self.completed += 1;
        self.finish_time = self.finish_time.max(at);
    }

    /// Records the completion of one in-flight op (no timestamp).
    pub fn complete(&mut self) {
        assert!(self.outstanding > 0, "completion without in-flight op");
        self.outstanding -= 1;
        self.completed += 1;
    }

    /// Ops currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Ops queued but not yet issued.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether all assigned work has been issued and completed.
    pub fn is_drained(&self) -> bool {
        self.pending == 0 && self.outstanding == 0
    }

    /// Total ops issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total ops completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The latest cycle at which this CU issued or completed an op — its
    /// per-GPM execution time contribution (Fig 5).
    pub fn finish_time(&self) -> Cycle {
        self.finish_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wg(n: usize) -> WorkgroupTrace {
        (0..n).map(|i| MemoryOp::read(i as u64 * 64, 1)).collect()
    }

    #[test]
    #[should_panic(expected = "at least one outstanding slot")]
    fn zero_outstanding_rejected() {
        CuPipeline::new(0);
    }

    #[test]
    fn issue_respects_outstanding_limit() {
        let mut cu = CuPipeline::new(2);
        cu.push_workgroup(wg(5));
        cu.issue(0);
        cu.issue(1);
        assert!(cu.next_issue(2).is_none());
        cu.complete();
        assert!(cu.next_issue(2).is_some());
    }

    #[test]
    fn gap_delays_issue_time() {
        let mut cu = CuPipeline::new(4);
        cu.push_workgroup(WorkgroupTrace::new(vec![MemoryOp::read(0, 7)]));
        let (t, _) = cu.next_issue(100).unwrap();
        assert_eq!(t, 107);
    }

    #[test]
    fn drains_after_all_work() {
        let mut cu = CuPipeline::new(8);
        cu.push_workgroup(wg(3));
        assert!(!cu.is_drained());
        for _ in 0..3 {
            cu.issue(0);
        }
        assert!(!cu.is_drained());
        for _ in 0..3 {
            cu.complete();
        }
        assert!(cu.is_drained());
        assert_eq!(cu.issued(), 3);
        assert_eq!(cu.completed(), 3);
    }

    #[test]
    fn finish_time_tracks_latest_event() {
        let mut cu = CuPipeline::new(2);
        cu.push_workgroup(wg(2));
        cu.issue(10);
        cu.issue(20);
        cu.complete_at(500);
        cu.complete_at(300);
        assert_eq!(cu.finish_time(), 500);
    }

    #[test]
    fn workgroups_execute_in_order() {
        let mut cu = CuPipeline::new(4);
        cu.push_workgroup(WorkgroupTrace::new(vec![MemoryOp::read(1, 0)]));
        cu.push_workgroup(WorkgroupTrace::new(vec![MemoryOp::read(2, 0)]));
        assert_eq!(cu.issue(0).vaddr, 1);
        assert_eq!(cu.issue(0).vaddr, 2);
    }

    #[test]
    fn issue_walks_workgroup_boundaries_in_order() {
        let mut cu = CuPipeline::new(16);
        let sizes = [3, 0, 1, 0, 0, 4];
        let mut next = 0;
        for n in sizes {
            cu.push_workgroup((next..next + n).map(|a| MemoryOp::read(a, 0)).collect());
            next += n;
        }
        assert_eq!(cu.pending(), 8);
        for (i, want) in (0..8).enumerate() {
            assert!(!cu.is_drained());
            let (_, peeked) = cu.next_issue(0).unwrap();
            assert_eq!(peeked.vaddr, want);
            assert_eq!(cu.issue(0).vaddr, want);
            assert_eq!(cu.pending(), 7 - i);
        }
        assert!(cu.next_issue(0).is_none());
        assert!(!cu.is_drained(), "ops still in flight");
        for _ in 0..7 {
            cu.complete();
            assert!(!cu.is_drained());
        }
        cu.complete();
        assert!(cu.is_drained());
        // Work pushed after draining issues normally.
        cu.push_workgroup(wg(2));
        assert!(!cu.is_drained());
        assert_eq!(cu.pending(), 2);
        assert_eq!(cu.issue(0).vaddr, 0);
    }

    #[test]
    fn only_empty_workgroups_leave_the_cu_drained() {
        let mut cu = CuPipeline::new(1);
        cu.push_workgroup(WorkgroupTrace::default());
        cu.push_workgroup(wg(0));
        assert_eq!(cu.pending(), 0);
        assert!(cu.is_drained());
        assert!(cu.next_issue(0).is_none());
    }

    #[test]
    #[should_panic(expected = "no pending op")]
    fn issue_with_empty_queue_panics() {
        let mut cu = CuPipeline::new(1);
        cu.issue(0);
    }

    #[test]
    #[should_panic(expected = "completion without in-flight op")]
    fn complete_without_issue_panics() {
        let mut cu = CuPipeline::new(1);
        cu.complete();
    }

    #[test]
    fn trace_from_iterator() {
        let t: WorkgroupTrace = (0..4).map(|i| MemoryOp::write(i, 0)).collect();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(!t.ops[0].is_read);
    }
}
