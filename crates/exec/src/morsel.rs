//! Morsel-driven parallel pipelines (paper §3.3/§8).
//!
//! The engine's earlier parallelism was two narrow shapes: the per-block
//! [`crate::exchange::Exchange`] map and the §8 partitioned index rollup.
//! This module generalizes both: a whole pipeline — scan →
//! kernel-pushed filter → partial aggregate — runs over *morsels*
//! (ranges of decompression blocks) claimed by a fixed pool of
//! work-stealing workers, followed by a deterministic merge phase.
//!
//! Determinism is the design constraint, not an afterthought: parallel
//! output must be **byte-identical** to the serial pipeline.
//!
//! * Pass-through pipelines reassemble blocks in morsel order. Morsels
//!   align on decompression-block boundaries, so each ranged scan emits
//!   exactly the blocks the whole scan would (see
//!   `block_ranges_partition_the_scan` in [`crate::scan`]).
//! * Hash-aggregate partials are per worker, not per morsel: each worker
//!   folds every morsel it claims into one [`HashGroups`] that records,
//!   per group, the earliest input position `(morsel, row)` it has seen
//!   — min-updated on every hit, because a worker that steals from a
//!   deque's back folds morsels out of order. The merge takes the
//!   `degree × groups` entries in ascending earliest position, so each
//!   group is allocated at its first occurrence in the whole input: the
//!   serial insertion order exactly. Integer fold functions are
//!   associative and commutative, so [`merge_acc`] is exact. Real sums
//!   are order-dependent — the planner declines parallelism for them.
//! * Ordered-aggregate partials are runs of contiguous groups,
//!   concatenated in morsel order with a boundary merge when the last
//!   group of one morsel continues into the next — the same contract
//!   `parallel_index` uses for the §8 rollup.
//!
//! The scheduler is deliberately simple: per-worker [`RangeDeque`]s of
//! contiguous morsel ids (one packed atomic word each — exhaustively
//! model-checked below), owner pops from the front, idle workers steal
//! from the back round-robin. Each worker folds the morsels it claims
//! into its own state; pass-through and ordered pipelines keep that
//! state as `(morsel, output)` pairs and reassemble them in morsel
//! order. No morsel is pushed after start, so all-deques-empty is a safe
//! termination condition. A panicking worker poisons the run and drains
//! every deque; the consumer then observes the panic instead of a silent
//! partial result.

use crate::aggregate::{
    domain_of, output_schema, AggPlan, AggSpec, Domain, HashGroups, OrderedRuns,
};
use crate::block::{Block, Schema};
use crate::expr::{AggFunc, Expr};
use crate::handle::ColumnHandle;
use crate::hash::{HashStrategy, KeyPacking};
use crate::merged_scan::{MergedScan, MergedSource};
use crate::scan::TableScan;
use crate::tactical;
use crate::{Operator, BLOCK_ROWS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Decompression blocks per morsel: large enough to amortize scheduling,
/// small enough to steal (~4 × 1024 rows at the default block size).
pub const MORSEL_BLOCKS: usize = 4;

/// A work-stealing deque over a contiguous range of morsel ids, packed
/// into one `AtomicU64` — `head` in the upper 32 bits, `tail` in the
/// lower 31, and bit 31 set once anything was stolen from the back; the
/// pending morsels are `[head, tail)`.
///
/// Every operation is a single-word CAS, so the protocol is trivially
/// linearizable, and because ids are claimed monotonically (head only
/// grows, tail only shrinks toward it) there is no ABA window. The
/// exhaustive interleaving model in the tests walks every reachable
/// (head, tail) state under arbitrary pop/steal/drain orders and checks
/// each id is claimed exactly once.
pub struct RangeDeque {
    state: AtomicU64,
}

const STOLEN: u64 = 1 << 31;

#[inline]
fn pack(head: u32, tail: u32) -> u64 {
    debug_assert!(u64::from(tail) < STOLEN, "morsel id {tail} out of range");
    (u64::from(head)) << 32 | u64::from(tail)
}

#[inline]
fn unpack(s: u64) -> (u32, u32) {
    ((s >> 32) as u32, (s & (STOLEN - 1)) as u32)
}

impl RangeDeque {
    /// A deque holding the pending ids `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> RangeDeque {
        debug_assert!(lo <= hi);
        RangeDeque {
            state: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Owner end: claim the front id, or `None` when empty.
    pub fn pop_front(&self) -> Option<u32> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return None;
            }
            match self.state.compare_exchange_weak(
                s,
                pack(head + 1, tail) | (s & STOLEN),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head),
                Err(cur) => s = cur,
            }
        }
    }

    /// Thief end: claim the back id, or `None` when empty.
    pub fn steal_back(&self) -> Option<u32> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return None;
            }
            match self.state.compare_exchange_weak(
                s,
                pack(head, tail - 1) | STOLEN,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(tail - 1),
                Err(cur) => s = cur,
            }
        }
    }

    /// Claim everything that remains, returning the range `[lo, hi)`
    /// that was claimed (empty when nothing was pending). Used to shut
    /// a run down after a worker panic.
    pub fn drain(&self) -> (u32, u32) {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(s);
            if head >= tail {
                return (head, head);
            }
            match self.state.compare_exchange_weak(
                s,
                pack(tail, tail) | (s & STOLEN),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return (head, tail),
                Err(cur) => s = cur,
            }
        }
    }

    /// Owner end: extend the pending range by `n` ids past the current
    /// tail, returning whether it did. Refused once anything was stolen
    /// from the back: the stolen ids sit past the tail, and a contiguous
    /// `[head, tail)` cannot skip them. Only meaningful before workers
    /// race on the deque (the scheduler seeds everything up front);
    /// still a CAS so the model can exercise push/steal interleavings.
    pub fn push_back(&self, n: u32) -> bool {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & STOLEN != 0 {
                return false;
            }
            let (head, tail) = unpack(s);
            match self.state.compare_exchange_weak(
                s,
                pack(head, tail + n),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(cur) => s = cur,
            }
        }
    }

    /// Pending ids.
    pub fn remaining(&self) -> u32 {
        let (head, tail) = unpack(self.state.load(Ordering::Acquire));
        tail.saturating_sub(head)
    }
}

/// Run `nmorsels` tasks across `degree` workers with work stealing.
/// Each worker starts from `init()` and folds every morsel it claims
/// into that state with `fold`, in claim order — ascending through its
/// own range, then descending through what it steals. Returns one state
/// per worker. Propagates the first worker panic to the caller after
/// every worker has stopped.
pub(crate) fn run_morsels<S, I, F>(degree: usize, nmorsels: usize, init: I, fold: F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u32) + Sync,
{
    let workers = degree.min(nmorsels).max(1);
    let timeline_on = tde_obs::timeline::enabled();
    let run = |state: &mut S, w: usize, m: u32, was_stolen: bool| {
        let t0 = timeline_on.then(Instant::now);
        fold(state, m);
        if let Some(t0) = t0 {
            tde_obs::timeline::morsel_span(w as u32, m, was_stolen, t0);
        }
    };
    if workers == 1 {
        let mut state = init();
        for m in 0..nmorsels as u32 {
            run(&mut state, 0, m, false);
        }
        return vec![state];
    }
    // Contiguous per-worker ranges: worker w owns morsels
    // [w*chunk, min((w+1)*chunk, n)).
    let chunk = nmorsels.div_ceil(workers);
    let deques: Vec<RangeDeque> = (0..workers)
        .map(|w| {
            let lo = (w * chunk).min(nmorsels) as u32;
            let hi = ((w + 1) * chunk).min(nmorsels) as u32;
            RangeDeque::new(lo, hi)
        })
        .collect();
    let poison: Mutex<Option<String>> = Mutex::new(None);
    let mut states: Vec<S> = Vec::with_capacity(workers);
    let mut dispatched = 0u64;
    let mut stolen = 0u64;
    let mut busy: Vec<u64> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (deques, poison, init, run) = (&deques, &poison, &init, &run);
                s.spawn(move || {
                    let mut state = init();
                    let mut dispatched = 0u64;
                    let mut stolen = 0u64;
                    let started = Instant::now();
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        loop {
                            // Own front first; then steal round-robin
                            // from the other deques' backs.
                            let task = deques[w].pop_front().map(|m| (m, false)).or_else(|| {
                                (1..deques.len()).find_map(|d| {
                                    deques[(w + d) % deques.len()]
                                        .steal_back()
                                        .map(|m| (m, true))
                                })
                            });
                            let Some((m, was_stolen)) = task else { break };
                            dispatched += 1;
                            stolen += u64::from(was_stolen);
                            run(&mut state, w, m, was_stolen);
                        }
                    }));
                    if let Err(p) = caught {
                        let msg = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                            .unwrap_or_else(|| "worker panicked".to_string());
                        let mut slot = poison.lock().unwrap_or_else(|e| e.into_inner());
                        slot.get_or_insert(msg);
                        // Stop the run: claim everything still pending so
                        // the other workers exit their loops promptly.
                        for d in deques {
                            d.drain();
                        }
                    }
                    (
                        state,
                        dispatched,
                        stolen,
                        started.elapsed().as_nanos() as u64,
                    )
                })
            })
            .collect();
        for h in handles {
            let (state, d, st, ns) = h.join().expect("worker panic was caught in-thread");
            states.push(state);
            dispatched += d;
            stolen += st;
            busy.push(ns);
        }
    });
    if tde_obs::metrics::enabled() {
        let m = tde_obs::metrics::morsel_metrics();
        m.dispatched.add(dispatched);
        m.stolen.add(stolen);
        for ns in &busy {
            m.worker_busy_ns.observe(*ns);
        }
    }
    if let Some(msg) = poison.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("morsel worker panicked: {msg}");
    }
    debug_assert_eq!(dispatched, nmorsels as u64, "lost or duplicated morsels");
    states
}

/// [`run_morsels`] for pipelines whose per-morsel outputs concatenate:
/// each worker keeps `(morsel, output)` pairs, and the pairs come back
/// in morsel order.
fn run_in_morsel_order<T, F>(degree: usize, nmorsels: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let mut done: Vec<(u32, T)> =
        run_morsels(degree, nmorsels, Vec::new, |out, m| out.push((m, f(m))))
            .into_iter()
            .flatten()
            .collect();
    // Morsel ids are unique, so the sort restores serial order exactly.
    done.sort_unstable_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}

/// Whether `aggs` over `schema` merge exactly from per-morsel partials.
/// Integer/token/dict folds are associative and exact; Real sums are
/// order-dependent (f64 addition), so the planner must keep them serial.
pub fn merge_safe(schema: &Schema, aggs: &[AggSpec]) -> bool {
    !aggs
        .iter()
        .any(|a| a.func == AggFunc::Sum && domain_of(&schema.fields[a.col]) == Domain::Real)
}

/// What the pipeline computes over each morsel (and how partials merge).
#[derive(Clone)]
pub enum MorselPipeline {
    /// Scan (+ pushed filter): blocks pass through, reassembled in
    /// morsel order.
    Emit,
    /// Hash aggregate: per-morsel partials merged by group key, group
    /// order = serial insertion order.
    HashAgg {
        /// Group-key column indices into the source schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Ordered (sandwiched) aggregate over grouped input: per-morsel
    /// runs concatenated with a boundary merge.
    OrderedAgg {
        /// Group-key column indices into the source schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
}

impl MorselPipeline {
    fn agg_parts(&self) -> Option<(&[usize], &[AggSpec])> {
        match self {
            MorselPipeline::Emit => None,
            MorselPipeline::HashAgg { group_cols, aggs }
            | MorselPipeline::OrderedAgg { group_cols, aggs } => Some((group_cols, aggs)),
        }
    }
}

/// The scan a morsel pipeline ranges over.
#[derive(Clone)]
pub enum MorselSource {
    /// Eager or paged columns, pre-resolved to handles (paged columns
    /// go through the buffer pool at resolve time; workers then read
    /// shared immutable segments).
    Table {
        /// The projected columns.
        handles: Vec<ColumnHandle>,
        /// Expand array-compressed columns to scalars at the scan.
        expand: bool,
    },
    /// A merge-on-read snapshot: base ranges plus one delta morsel.
    Merged {
        /// The snapshot.
        source: Arc<MergedSource>,
        /// Projected column indices into the snapshot schema.
        columns: Vec<usize>,
        /// Expand array-compressed columns to scalars at the scan.
        expand: bool,
    },
}

/// One morsel: base decompression blocks `[lo, hi)`, plus the delta leg
/// when `delta` (merged sources ride the delta with one morsel).
#[derive(Clone, Copy, Debug)]
struct MorselRange {
    lo: usize,
    hi: usize,
    delta: bool,
}

/// A full pipeline executed morsel-parallel: scan (eager, paged or
/// merged) → optional pushed predicate → optional partial aggregate,
/// with a deterministic merge phase. Output is byte-identical to the
/// serial pipeline; see the module docs for why.
pub struct MorselExec {
    source: MorselSource,
    predicate: Option<(Expr, bool)>,
    pipeline: MorselPipeline,
    degree: usize,
    schema: Schema,
    source_schema: Schema,
    /// Group keys, aggregates and domains of an aggregate pipeline.
    agg: Option<AggPlan>,
    strategy: HashStrategy,
    packing: Option<KeyPacking>,
    morsels: Vec<MorselRange>,
    output: Vec<Block>,
    next: usize,
    ran: bool,
}

impl MorselExec {
    /// Build a morsel pipeline. `predicate` is `(expr, force_fallback)`
    /// pushed into every ranged scan; `degree` is the worker count (1 =
    /// run on the calling thread, still through the same merge path).
    pub fn new(
        source: MorselSource,
        predicate: Option<(Expr, bool)>,
        pipeline: MorselPipeline,
        degree: usize,
    ) -> MorselExec {
        let source_schema = match &source {
            MorselSource::Table { handles, expand } => {
                Schema::new(handles.iter().map(|h| h.field(*expand)).collect())
            }
            MorselSource::Merged {
                source,
                columns,
                expand,
            } => MergedScan::new(Arc::clone(source), columns.clone(), *expand)
                .schema()
                .clone(),
        };
        let (schema, agg, strategy, packing) = match pipeline.agg_parts() {
            None => (source_schema.clone(), None, HashStrategy::Collision, None),
            Some((group_cols, aggs)) => {
                // Real sums are not merge-safe (f64 addition is
                // order-dependent); the planner must decline these.
                debug_assert!(
                    merge_safe(&source_schema, aggs),
                    "Sum over Real is not morsel-mergeable"
                );
                let keys: Vec<_> = group_cols
                    .iter()
                    .map(|&c| &source_schema.fields[c])
                    .collect();
                let (strategy, packing) = tactical::choose_hash_strategy(&keys);
                let plan = AggPlan::new(&source_schema, group_cols.to_vec(), aggs.to_vec());
                (
                    output_schema(&source_schema, group_cols, aggs),
                    Some(plan),
                    strategy,
                    packing,
                )
            }
        };
        let morsels = Self::partition(&source);
        MorselExec {
            source,
            predicate,
            pipeline,
            degree: degree.max(1),
            schema,
            source_schema,
            agg,
            strategy,
            packing,
            morsels,
            output: Vec::new(),
            next: 0,
            ran: false,
        }
    }

    /// Split the source into morsels of [`MORSEL_BLOCKS`] decompression
    /// blocks (merged sources get the delta leg on one extra morsel).
    fn partition(source: &MorselSource) -> Vec<MorselRange> {
        let (rows, delta) = match source {
            MorselSource::Table { handles, .. } => (
                handles.iter().map(|h| h.col().len()).min().unwrap_or(0),
                false,
            ),
            MorselSource::Merged { source, .. } => (source.base_rows(), source.delta_rows() > 0),
        };
        let nblocks = (rows as usize).div_ceil(BLOCK_ROWS);
        let mut morsels = Vec::with_capacity(nblocks.div_ceil(MORSEL_BLOCKS) + 1);
        let mut at = 0;
        while at < nblocks {
            let hi = (at + MORSEL_BLOCKS).min(nblocks);
            morsels.push(MorselRange {
                lo: at,
                hi,
                delta: false,
            });
            at = hi;
        }
        if delta || morsels.is_empty() {
            morsels.push(MorselRange {
                lo: nblocks,
                hi: nblocks,
                delta: true,
            });
        }
        morsels
    }

    /// Morsel count (used by the planner's explain label and fallbacks).
    pub fn morsel_count(&self) -> usize {
        self.morsels.len()
    }

    /// The configured worker count.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Build the ranged scan for one morsel. Quiet variants everywhere:
    /// telemetry for the query is emitted once, not per morsel.
    fn build_leg(&self, m: MorselRange) -> Box<dyn Operator> {
        match &self.source {
            MorselSource::Table { handles, expand } => {
                let mut scan = TableScan::from_handles(handles.clone(), *expand);
                if let Some((p, ff)) = &self.predicate {
                    scan = scan.with_pushed_quiet(p.clone(), *ff);
                }
                Box::new(scan.with_block_range(m.lo, m.hi))
            }
            MorselSource::Merged {
                source,
                columns,
                expand,
            } => {
                let mut scan = MergedScan::new(Arc::clone(source), columns.clone(), *expand);
                if let Some((p, ff)) = &self.predicate {
                    scan = scan.with_pushed(p.clone(), *ff);
                }
                Box::new(scan.with_morsel_range(m.lo, m.hi, m.delta))
            }
        }
    }

    /// The blocks one morsel's leg produces.
    fn scan_morsel(&self, m: u32) -> Vec<Block> {
        let mut op = self.build_leg(self.morsels[m as usize]);
        std::iter::from_fn(|| op.next_block()).collect()
    }

    fn plan(&self) -> &AggPlan {
        self.agg.as_ref().expect("aggregate pipeline")
    }

    /// An empty per-worker hash partial.
    fn hash_groups(&self) -> HashGroups {
        HashGroups::new(self.plan(), self.strategy, self.packing.clone())
    }

    /// Fold morsel `m` into a worker's hash partial. Row `r` of the
    /// morsel's output sits at input position `(m << 32) + r`: morsel
    /// order, then row order — the order the serial pipeline reads.
    fn fold_hash_morsel(&self, groups: &mut HashGroups, m: u32) {
        let plan = self.plan();
        let mut op = self.build_leg(self.morsels[m as usize]);
        let mut at = u64::from(m) << 32;
        while let Some(block) = op.next_block() {
            groups.fold_block(plan, &block, at);
            at += block.len as u64;
        }
    }

    /// Fold morsel `m` into its own runs.
    fn ordered_morsel(&self, m: u32) -> OrderedRuns {
        let plan = self.plan();
        let mut runs = OrderedRuns::new(plan);
        let mut op = self.build_leg(self.morsels[m as usize]);
        while let Some(block) = op.next_block() {
            runs.fold_block(plan, &block);
        }
        runs
    }

    /// Merge per-worker hash partials into the serial output.
    fn merge_hash(&self, parts: Vec<HashGroups>) -> Vec<Block> {
        let plan = self.plan();
        HashGroups::merge(plan, self.strategy, self.packing.clone(), parts).finish(plan)
    }

    /// Concatenate per-morsel runs in morsel order; a group straddling a
    /// morsel boundary folds its continuation into the open run.
    fn merge_runs(&self, parts: Vec<OrderedRuns>) -> Vec<Block> {
        let plan = self.plan();
        let mut all = OrderedRuns::new(plan);
        for runs in parts {
            all.append(plan, runs);
        }
        all.finish(plan)
    }

    fn run(&mut self) {
        self.ran = true;
        if self.degree > 1 && tde_obs::metrics::enabled() {
            tde_obs::metrics::morsel_metrics().parallel_queries.inc();
        }
        let (degree, n) = (self.degree, self.morsels.len());
        self.output = match &self.pipeline {
            MorselPipeline::Emit => run_in_morsel_order(degree, n, |m| self.scan_morsel(m))
                .into_iter()
                .flatten()
                .collect(),
            MorselPipeline::HashAgg { .. } => self.merge_hash(run_morsels(
                degree,
                n,
                || self.hash_groups(),
                |groups, m| self.fold_hash_morsel(groups, m),
            )),
            MorselPipeline::OrderedAgg { .. } => {
                self.merge_runs(run_in_morsel_order(degree, n, |m| self.ordered_morsel(m)))
            }
        };
    }
}

impl Operator for MorselExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if !self.ran {
            self.run();
        }
        let b = self.output.get(self.next).cloned();
        self.next += 1;
        b
    }
}

impl MorselExec {
    /// The source schema the pipeline scans (the planner needs it to
    /// resolve predicate/aggregate column indices).
    pub fn source_schema(&self) -> &Schema {
        &self.source_schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{HashAggregate, OrderedAggregate};
    use crate::expr::CmpOp;
    use crate::{drain, BoxOp};
    use std::collections::BTreeSet;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::DataType;

    // ---- RangeDeque protocol ----

    /// Exhaustive interleaving model of the claim protocol: from every
    /// reachable (head, tail) state, apply every operation; each id must
    /// be claimed exactly once across any operation sequence. Because
    /// each operation is one CAS on one word, operation-level
    /// interleaving is exactly thread-level interleaving.
    #[test]
    fn deque_claim_protocol_is_exact_under_all_interleavings() {
        fn walk(head: u32, tail: u32, hi: u32, claimed: &mut BTreeSet<u32>) {
            // Invariant: claimed = [0, head) ∪ [tail, hi).
            let expect: BTreeSet<u32> = (0..head).chain(tail..hi).collect();
            assert_eq!(*claimed, expect, "state ({head},{tail})");
            if head >= tail {
                return;
            }
            // pop_front claims `head`.
            assert!(claimed.insert(head), "double-claim {head}");
            walk(head + 1, tail, hi, claimed);
            claimed.remove(&head);
            // steal_back claims `tail - 1`.
            assert!(claimed.insert(tail - 1), "double-claim {}", tail - 1);
            walk(head, tail - 1, hi, claimed);
            claimed.remove(&(tail - 1));
            // drain claims [head, tail).
            for id in head..tail {
                assert!(claimed.insert(id), "double-claim {id}");
            }
            walk(tail, tail, hi, claimed);
            for id in head..tail {
                claimed.remove(&id);
            }
        }
        for n in 0..=6u32 {
            let mut claimed = BTreeSet::new();
            walk(0, n, n, &mut claimed);
        }
    }

    #[test]
    fn deque_concurrent_claims_are_exactly_once() {
        const N: u32 = 10_000;
        let d = RangeDeque::new(0, N);
        let claims: Vec<Mutex<Vec<u32>>> = (0..8).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for (t, slot) in claims.iter().enumerate() {
                let d = &d;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // Half the threads pop, half steal.
                        let got = if t % 2 == 0 {
                            d.pop_front()
                        } else {
                            d.steal_back()
                        };
                        match got {
                            Some(id) => mine.push(id),
                            None => break,
                        }
                    }
                    *slot.lock().unwrap() = mine;
                });
            }
        });
        let mut all: Vec<u32> = claims
            .iter()
            .flat_map(|m| m.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
        assert_eq!(d.remaining(), 0);
    }

    /// Loom model of the push/steal/drain protocol: an owner pops and
    /// pushes, a thief steals, a killer drains; every id must be claimed
    /// exactly once. Under the offline loom shim this is bounded
    /// stress; against real loom the same body explores interleavings
    /// exhaustively (the deque is one word, so each op is one atomic
    /// transition — exactly the granularity loom schedules at).
    #[test]
    fn deque_push_steal_drain_protocol_loom_model() {
        loom::model(|| {
            let d = loom::sync::Arc::new(RangeDeque::new(0, 3));
            let claims = loom::sync::Arc::new(Mutex::new(Vec::new()));
            let owner = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let mut got = Vec::new();
                    got.extend(d.pop_front());
                    d.push_back(2); // ids 3, 4 join the pending range
                    got.extend(d.pop_front());
                    claims.lock().unwrap().extend(got);
                })
            };
            let thief = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let mut got = Vec::new();
                    got.extend(d.steal_back());
                    got.extend(d.steal_back());
                    claims.lock().unwrap().extend(got);
                })
            };
            let killer = {
                let (d, claims) = (d.clone(), claims.clone());
                loom::thread::spawn(move || {
                    let (lo, hi) = d.drain();
                    claims.lock().unwrap().extend(lo..hi);
                })
            };
            owner.join().unwrap();
            thief.join().unwrap();
            killer.join().unwrap();
            // The killer may have drained before the owner's push_back,
            // so a late pop/steal can still claim the pushed ids — but
            // nothing is ever claimed twice or invented.
            let (_, _) = d.drain();
            let mut got = claims.lock().unwrap().clone();
            got.sort_unstable();
            let mut dedup = got.clone();
            dedup.dedup();
            assert_eq!(got, dedup, "double-claimed ids: {got:?}");
            assert!(got.iter().all(|&id| id < 5), "invented id: {got:?}");
        });
    }

    /// `push_back` after a steal would re-pend the stolen id (`[1, 4)`
    /// after stealing 2 from `[1, 3)`), so it must refuse.
    #[test]
    fn deque_push_back_after_steal_is_refused() {
        let d = RangeDeque::new(0, 3);
        assert_eq!(d.pop_front(), Some(0));
        assert_eq!(d.steal_back(), Some(2));
        assert!(!d.push_back(2));
        assert_eq!(d.remaining(), 1);
        assert_eq!(d.pop_front(), Some(1));
        assert_eq!(d.pop_front(), None);
        assert_eq!(d.steal_back(), None);
        // A drain does not lift the refusal; a pop alone never sets it.
        assert!(!d.push_back(1));
        let d = RangeDeque::new(0, 3);
        assert_eq!(d.pop_front(), Some(0));
        assert_eq!(d.drain(), (1, 3));
        assert!(d.push_back(1));
        assert_eq!(d.steal_back(), Some(3));
    }

    #[test]
    fn deque_push_back_extends_tail() {
        let d = RangeDeque::new(3, 3);
        assert_eq!(d.pop_front(), None);
        d.push_back(2);
        assert_eq!(d.remaining(), 2);
        assert_eq!(d.steal_back(), Some(4));
        assert_eq!(d.pop_front(), Some(3));
        assert_eq!(d.drain(), (4, 4));
    }

    // ---- scheduler ----

    #[test]
    fn scheduler_returns_results_in_morsel_order() {
        for degree in [1usize, 2, 3, 8] {
            let out = run_in_morsel_order(degree, 37, |m| m * 10);
            assert_eq!(out, (0..37).map(|m| m * 10).collect::<Vec<_>>(), "{degree}");
        }
    }

    #[test]
    fn scheduler_folds_each_morsel_into_exactly_one_worker_state() {
        for degree in [1usize, 2, 3, 8] {
            let states = run_morsels(degree, 37, Vec::new, |seen: &mut Vec<u32>, m| seen.push(m));
            assert_eq!(states.len(), degree.min(37), "{degree}");
            let mut all: Vec<u32> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<_>>(), "{degree}");
        }
    }

    #[test]
    fn scheduler_propagates_worker_panics() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_in_morsel_order(4, 64, |m| {
                if m == 13 {
                    panic!("boom at morsel {m}");
                }
                m
            })
        }));
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("boom at morsel 13"), "{msg}");
    }

    // ---- pipeline serial equivalence ----

    fn table(rows: i64) -> Arc<Table> {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            g.append_i64(i / 300); // sorted, RLE-friendly
            v.append_i64(i % 977);
            s.append_str(Some(["x", "y", "z"][i as usize % 3]));
        }
        Arc::new(Table::new(
            "t",
            vec![g.finish().column, v.finish().column, s.finish().column],
        ))
    }

    fn assert_blocks_identical(serial: Vec<Block>, parallel: Vec<Block>, what: &str) {
        assert_eq!(serial.len(), parallel.len(), "{what}: block count");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.len, b.len, "{what}: block {i} len");
            assert_eq!(a.columns, b.columns, "{what}: block {i} columns");
        }
    }

    fn pred() -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3))
    }

    #[test]
    fn emit_pipeline_is_byte_identical_to_serial_scan() {
        let t = table(9000);
        for predicate in [None, Some((pred(), false)), Some((pred(), true))] {
            let mut serial = TableScan::new(Arc::clone(&t));
            if let Some((p, ff)) = &predicate {
                serial = serial.with_pushed_quiet(p.clone(), *ff);
            }
            let want = drain(Box::new(serial));
            for degree in [1usize, 2, 4, 8] {
                let m = MorselExec::new(
                    MorselSource::Table {
                        handles: ColumnHandle::all(&t),
                        expand: false,
                    },
                    predicate.clone(),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("emit degree={degree} pred={}", predicate.is_some()),
                );
            }
        }
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 2, "hi"),
        ]
    }

    #[test]
    fn hash_agg_pipeline_is_byte_identical_to_serial() {
        let t = table(20_000);
        // Group by a token column too: exercises non-trivial domains.
        for group_cols in [vec![0usize], vec![2, 0]] {
            let serial: BoxOp = Box::new(HashAggregate::new(
                Box::new(TableScan::new(Arc::clone(&t)).with_pushed_quiet(pred(), false)),
                group_cols.clone(),
                specs(),
            ));
            let want = drain(serial);
            for degree in [2usize, 4, 8] {
                let m = MorselExec::new(
                    MorselSource::Table {
                        handles: ColumnHandle::all(&t),
                        expand: false,
                    },
                    Some((pred(), false)),
                    MorselPipeline::HashAgg {
                        group_cols: group_cols.clone(),
                        aggs: specs(),
                    },
                    degree,
                );
                assert_eq!(m.schema().fields.len(), group_cols.len() + specs().len());
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("hash degree={degree} groups={group_cols:?}"),
                );
            }
        }
    }

    #[test]
    fn ordered_agg_pipeline_is_byte_identical_to_serial() {
        // Groups of 300 rows straddle both block and morsel boundaries,
        // so the boundary merge is exercised heavily.
        let t = table(20_000);
        let serial: BoxOp = Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(Arc::clone(&t))),
            vec![0],
            specs(),
        ));
        let want = drain(serial);
        for degree in [2usize, 4, 8] {
            let m = MorselExec::new(
                MorselSource::Table {
                    handles: ColumnHandle::all(&t),
                    expand: false,
                },
                None,
                MorselPipeline::OrderedAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                degree,
            );
            assert_blocks_identical(
                want.clone(),
                drain(Box::new(m)),
                &format!("ordered degree={degree}"),
            );
        }
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let t = table(1000);
        // Predicate matching nothing → empty input to the aggregate.
        let none = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(-1));
        let m = MorselExec::new(
            MorselSource::Table {
                handles: ColumnHandle::all(&t),
                expand: false,
            },
            Some((none, false)),
            MorselPipeline::HashAgg {
                group_cols: vec![],
                aggs: vec![AggSpec::new(AggFunc::Count, 0, "n")],
            },
            4,
        );
        let blocks = drain(Box::new(m));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len, 1);
        assert_eq!(blocks[0].columns[0][0], 0);
    }

    #[test]
    fn merged_source_pipelines_match_serial() {
        use crate::merged_scan::MergedScan;
        let t = table(7000);
        let handles = ColumnHandle::all(&t);
        let fields: Vec<_> = handles.iter().map(|h| h.field(false)).collect();
        // One delta block in the merged repr (integer cols + a token col
        // reusing an existing token).
        let tok = {
            let b = drain(Box::new(TableScan::new(Arc::clone(&t))));
            b[0].columns[2][0]
        };
        let delta = vec![Block::new(vec![vec![100, 200], vec![7, 8], vec![tok, tok]])];
        for tombstones in [vec![], vec![5u64, 2000, 6999]] {
            let src = Arc::new(MergedSource::new(
                "t",
                handles.clone(),
                fields.clone(),
                7000,
                Arc::new(tombstones.clone()),
                delta.clone(),
            ));
            // Emit with predicate.
            let want = drain(Box::new(
                MergedScan::all(Arc::clone(&src), false).with_pushed(pred(), false),
            ));
            for degree in [2usize, 4] {
                let m = MorselExec::new(
                    MorselSource::Merged {
                        source: Arc::clone(&src),
                        columns: (0..3).collect(),
                        expand: false,
                    },
                    Some((pred(), false)),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("merged emit degree={degree} tombstones={tombstones:?}"),
                );
            }
            // Hash aggregate over the merged scan.
            let want = drain(Box::new(HashAggregate::new(
                Box::new(MergedScan::all(Arc::clone(&src), false)),
                vec![0],
                specs(),
            )));
            let m = MorselExec::new(
                MorselSource::Merged {
                    source: Arc::clone(&src),
                    columns: (0..3).collect(),
                    expand: false,
                },
                None,
                MorselPipeline::HashAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                4,
            );
            assert_blocks_identical(
                want,
                drain(Box::new(m)),
                &format!("merged hash tombstones={tombstones:?}"),
            );
        }
    }

    fn hash_exec(t: &Arc<Table>, group_cols: Vec<usize>, degree: usize) -> MorselExec {
        MorselExec::new(
            MorselSource::Table {
                handles: ColumnHandle::all(t),
                expand: false,
            },
            None,
            MorselPipeline::HashAgg {
                group_cols,
                aggs: specs(),
            },
            degree,
        )
    }

    /// Folding morsels into one worker's state in descending order — the
    /// order a thief claims them — still yields the serial group order:
    /// positions are min-updated on every hit, not set once on insert.
    #[test]
    fn descending_morsel_fold_keeps_serial_group_order() {
        let t = table(20_000);
        for group_cols in [vec![0usize], vec![2, 0]] {
            let want = drain(Box::new(HashAggregate::new(
                Box::new(TableScan::new(Arc::clone(&t))),
                group_cols.clone(),
                specs(),
            )));
            let m = hash_exec(&t, group_cols.clone(), 2);
            let mut groups = m.hash_groups();
            for id in (0..m.morsel_count() as u32).rev() {
                m.fold_hash_morsel(&mut groups, id);
            }
            assert_blocks_identical(
                want,
                m.merge_hash(vec![groups]),
                &format!("descending fold groups={group_cols:?}"),
            );
        }
    }

    /// Key columns for each strategy over `h = scatter(i / 2)` at row
    /// `i` — `direct` (14 bits), `perfect20` (20 bits), `perfect_hi`
    /// (54 bits) and `wide` (54 bits, negative) — then `v` and `s`. A
    /// group per two rows of a morsel, first occurrences interleaved, and
    /// some groups recur in distant morsels.
    fn high_cardinality_table(rows: i64) -> Arc<Table> {
        // i/2 < 15,000 scattered over 12,000 keys.
        let scatter = |i: i64| (i / 2 * 7919) % 12_000;
        let key = |k: usize, h: i64| match k {
            0 => h,
            1 => h * 61,
            2 => h << 40,
            _ => (h << 40) - (1 << 62),
        };
        let builder =
            |name: &str, dtype| ColumnBuilder::new(name, dtype, EncodingPolicy::default());
        let mut cols: Vec<ColumnBuilder> = ["direct", "perfect20", "perfect_hi", "wide"]
            .iter()
            .map(|name| builder(name, DataType::Integer))
            .collect();
        let mut v = builder("v", DataType::Integer);
        let mut s = builder("s", DataType::Str);
        for i in 0..rows {
            for (k, b) in cols.iter_mut().enumerate() {
                b.append_i64(key(k, scatter(i)));
            }
            // NULLs in a few blocks only: the others take the NULL-free loops.
            let null = (10_000..12_000).contains(&i) && i % 11 == 0;
            v.append_i64(if null {
                tde_types::sentinel::NULL_I64
            } else {
                i % 977
            });
            s.append_str(Some(["x", "y", "z"][i as usize % 3]));
        }
        cols.push(v);
        cols.push(s);
        Arc::new(Table::new(
            "hc",
            cols.into_iter().map(|b| b.finish().column).collect(),
        ))
    }

    #[test]
    fn high_cardinality_hash_agg_is_byte_identical_to_serial() {
        let t = high_cardinality_table(30_000);
        let cases: [(Vec<usize>, HashStrategy); 5] = [
            (vec![0], HashStrategy::Direct64K),
            (vec![1], HashStrategy::Perfect),
            (vec![2, 5], HashStrategy::Perfect),
            (vec![3, 1], HashStrategy::Collision),
            (vec![3, 2], HashStrategy::Collision),
        ];
        let aggs = vec![
            AggSpec::new(AggFunc::Count, 4, "n"),
            AggSpec::new(AggFunc::Sum, 4, "s"),
            AggSpec::new(AggFunc::Min, 4, "lo"),
            AggSpec::new(AggFunc::Max, 5, "hi"),
        ];
        for (group_cols, strategy) in cases {
            let serial = HashAggregate::new(
                Box::new(TableScan::new(Arc::clone(&t))),
                group_cols.clone(),
                aggs.clone(),
            );
            assert_eq!(serial.strategy, strategy, "{group_cols:?}");
            let want_schema = serial.schema().clone();
            let want = drain(Box::new(serial));
            let groups: usize = want.iter().map(|b| b.len).sum();
            assert!(groups >= 12_000, "{group_cols:?}: {groups} groups");
            for degree in [2usize, 4, 8] {
                let m = MorselExec::new(
                    MorselSource::Table {
                        handles: ColumnHandle::all(&t),
                        expand: false,
                    },
                    None,
                    MorselPipeline::HashAgg {
                        group_cols: group_cols.clone(),
                        aggs: aggs.clone(),
                    },
                    degree,
                );
                assert_eq!(m.strategy, strategy);
                let what = format!("{strategy:?} degree={degree} groups={group_cols:?}");
                assert_eq!(
                    format!("{:?}", m.schema()),
                    format!("{want_schema:?}"),
                    "{what}: schema"
                );
                assert_blocks_identical(want.clone(), drain(Box::new(m)), &what);
            }
        }
    }

    #[test]
    fn empty_table_pipelines() {
        let t = Arc::new(Table::new("e", vec![]));
        let m = MorselExec::new(
            MorselSource::Table {
                handles: ColumnHandle::all(&t),
                expand: false,
            },
            None,
            MorselPipeline::Emit,
            4,
        );
        assert!(drain(Box::new(m)).is_empty());
    }
}
