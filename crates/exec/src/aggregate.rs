//! Aggregation: hash-based (with tactically chosen hash strategy) and
//! ordered ("sandwiched", paper §4.2.2).
//!
//! The hash aggregate picks direct/perfect/collision hashing from the key
//! columns' metadata (§2.3.4); the ordered aggregate exploits grouped
//! input — a sorted primary key, or the value-sorted IndexedScan output of
//! §4.2.2 — to aggregate in a single pass with no table at all.

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::AggFunc;
use crate::hash::{GroupMap, HashStrategy, KeyPacking};
use crate::tactical;
use crate::{BoxOp, Operator, BLOCK_ROWS};
use tde_types::sentinel::{is_null_real, null_real, NULL_I64, NULL_TOKEN};
use tde_types::DataType;

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column index (ignored for `Count`).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, col: usize, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            col,
            name: name.into(),
        }
    }
}

#[derive(Clone, PartialEq)]
pub(crate) enum Domain {
    Int,
    Real,
    Token,
    /// Dictionary-coded input: stored values are positions into the
    /// dictionary, not scalars — they must be translated before folding
    /// (a sum of codes is meaningless, and extrema of codes follow
    /// dictionary order, not value order).
    Dict(std::sync::Arc<Vec<i64>>),
}

pub(crate) fn domain_of(f: &Field) -> Domain {
    match (&f.repr, f.dtype) {
        (Repr::Token(_) | Repr::TokenCell(_), _) => Domain::Token,
        (Repr::DictIndex(dict), _) => Domain::Dict(dict.clone()),
        (_, DataType::Real) => Domain::Real,
        _ => Domain::Int,
    }
}

/// Accumulator state for one (group, agg) cell.
#[derive(Clone, Copy)]
pub(crate) struct Acc {
    pub(crate) value: i64,
    pub(crate) count: u64,
}

pub(crate) fn init_acc() -> Acc {
    Acc { value: 0, count: 0 }
}

#[inline]
pub(crate) fn fold(acc: &mut Acc, func: AggFunc, domain: &Domain, raw: i64) {
    // NULL inputs are skipped (except COUNT counts rows).
    if func == AggFunc::Count {
        acc.count += 1;
        return;
    }
    // Translate dictionary codes to the scalars they stand for; joins can
    // inject the scalar sentinel directly, so it passes through.
    let raw = match domain {
        Domain::Dict(dict) if raw != NULL_I64 => dict[raw as usize],
        _ => raw,
    };
    let is_null = match domain {
        Domain::Int | Domain::Dict(_) => raw == NULL_I64,
        Domain::Real => is_null_real(f64::from_bits(raw as u64)),
        Domain::Token => raw as u64 == NULL_TOKEN,
    };
    if is_null {
        return;
    }
    if acc.count == 0 {
        acc.value = raw;
        acc.count = 1;
        return;
    }
    acc.count += 1;
    match (func, domain) {
        (AggFunc::Sum, Domain::Real) => {
            let s = f64::from_bits(acc.value as u64) + f64::from_bits(raw as u64);
            acc.value = s.to_bits() as i64;
        }
        (AggFunc::Sum, _) => acc.value = acc.value.wrapping_add(raw),
        (AggFunc::Min, Domain::Real) => {
            if f64::from_bits(raw as u64) < f64::from_bits(acc.value as u64) {
                acc.value = raw;
            }
        }
        (AggFunc::Max, Domain::Real) => {
            if f64::from_bits(raw as u64) > f64::from_bits(acc.value as u64) {
                acc.value = raw;
            }
        }
        // Token min/max compares tokens: correct when the heap is sorted —
        // the §3.4.3 payoff; otherwise it is heap order.
        (AggFunc::Min, _) => acc.value = acc.value.min(raw),
        (AggFunc::Max, _) => acc.value = acc.value.max(raw),
        (AggFunc::Count, _) => unreachable!(),
    }
}

/// Merge accumulator `b` (a partial computed over a later slice of the
/// input) into `a`. Exact for every merge-safe function: counts add,
/// wrapping integer sums add, extrema compare — the same results the
/// serial fold produces in any split, because those folds are
/// associative and commutative over the non-NULL inputs. Real sums are
/// NOT merge-safe (f64 addition is order-dependent); the morsel planner
/// declines parallelism for them rather than merge here.
pub(crate) fn merge_acc(a: &mut Acc, b: &Acc, func: AggFunc, domain: &Domain) {
    if func == AggFunc::Count {
        a.count += b.count;
        return;
    }
    if b.count == 0 {
        return;
    }
    if a.count == 0 {
        *a = *b;
        return;
    }
    a.count += b.count;
    match (func, domain) {
        (AggFunc::Sum, Domain::Real) => {
            let s = f64::from_bits(a.value as u64) + f64::from_bits(b.value as u64);
            a.value = s.to_bits() as i64;
        }
        (AggFunc::Sum, _) => a.value = a.value.wrapping_add(b.value),
        (AggFunc::Min, Domain::Real) => {
            if f64::from_bits(b.value as u64) < f64::from_bits(a.value as u64) {
                a.value = b.value;
            }
        }
        (AggFunc::Max, Domain::Real) => {
            if f64::from_bits(b.value as u64) > f64::from_bits(a.value as u64) {
                a.value = b.value;
            }
        }
        (AggFunc::Min, _) => a.value = a.value.min(b.value),
        (AggFunc::Max, _) => a.value = a.value.max(b.value),
        (AggFunc::Count, _) => unreachable!(),
    }
}

pub(crate) fn final_value(acc: &Acc, func: AggFunc, domain: &Domain) -> i64 {
    match func {
        AggFunc::Count => acc.count as i64,
        _ if acc.count == 0 => match domain {
            Domain::Real => null_real().to_bits() as i64,
            Domain::Token => NULL_TOKEN as i64,
            Domain::Int | Domain::Dict(_) => NULL_I64,
        },
        _ => acc.value,
    }
}

pub(crate) fn output_schema(input: &Schema, group_cols: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.fields[c].clone())
        .collect();
    for a in aggs {
        let mut f = match a.func {
            AggFunc::Count => Field::scalar(a.name.clone(), DataType::Integer),
            _ => {
                let mut f = input.fields[a.col].clone();
                // Folding translated dictionary codes to scalars, so the
                // aggregate value is no longer a dictionary position.
                if matches!(f.repr, Repr::DictIndex(_)) {
                    f.repr = Repr::Scalar;
                }
                f.metadata = tde_encodings::ColumnMetadata::unknown();
                f
            }
        };
        f.name = a.name.clone();
        fields.push(f);
    }
    Schema::new(fields)
}

pub(crate) fn emit_blocks(rows: Vec<Vec<i64>>, ncols: usize) -> Vec<Block> {
    // rows is column-major already.
    let nrows = rows.first().map_or(0, Vec::len);
    let mut blocks = Vec::new();
    let mut at = 0;
    while at < nrows {
        let take = BLOCK_ROWS.min(nrows - at);
        let columns: Vec<Vec<i64>> = (0..ncols)
            .map(|c| rows[c][at..at + take].to_vec())
            .collect();
        blocks.push(Block { columns, len: take });
        at += take;
    }
    blocks
}

/// What an aggregate computes: its group-key columns, its aggregates and
/// each aggregate's input domain.
pub(crate) struct AggPlan {
    pub(crate) group_cols: Vec<usize>,
    pub(crate) aggs: Vec<AggSpec>,
    domains: Vec<Domain>,
}

impl AggPlan {
    pub(crate) fn new(input: &Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggPlan {
        let domains = aggs
            .iter()
            .map(|a| domain_of(&input.fields[a.col]))
            .collect();
        AggPlan {
            group_cols,
            aggs,
            domains,
        }
    }

    fn key_columns<'b>(&self, block: &'b Block) -> Vec<&'b [i64]> {
        self.group_cols
            .iter()
            .map(|&c| &block.columns[c][..block.len])
            .collect()
    }

    /// Fold `block` into `accs` (`accs[agg][group]`, grown to `groups`
    /// groups), row `r` going to group `gids[r]`: one loop per aggregate.
    fn fold_block(&self, accs: &mut [Vec<Acc>], gids: &[u32], groups: usize, block: &Block) {
        for ((acc, spec), domain) in accs.iter_mut().zip(&self.aggs).zip(&self.domains) {
            acc.resize(groups, init_acc());
            fold_column(
                acc,
                gids,
                &block.columns[spec.col][..block.len],
                spec.func,
                domain,
            );
        }
    }

    /// Merge group `src` of `from` into group `dst` of `into`.
    fn merge_group(&self, into: &mut [Vec<Acc>], dst: usize, from: &[Vec<Acc>], src: usize) {
        for (a, (spec, domain)) in self.aggs.iter().zip(&self.domains).enumerate() {
            merge_acc(&mut into[a][dst], &from[a][src], spec.func, domain);
        }
    }

    /// Column-major output for groups `0..n`: group keys, then each
    /// aggregate's final value.
    fn output_columns<'k>(
        &self,
        n: usize,
        key: impl Fn(usize) -> &'k [i64],
        accs: &[Vec<Acc>],
    ) -> Vec<Vec<i64>> {
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(n); self.group_cols.len()];
        for g in 0..n {
            for (col, &v) in cols.iter_mut().zip(key(g)) {
                col.push(v);
            }
        }
        for ((acc, spec), domain) in accs.iter().zip(&self.aggs).zip(&self.domains) {
            cols.push(
                acc[..n]
                    .iter()
                    .map(|a| final_value(a, spec.func, domain))
                    .collect(),
            );
        }
        cols
    }
}

/// Fold one input column into its accumulators, row `r` going to group
/// `gids[r]`. Count and NULL-free integer or token Sum/Min/Max run as
/// tight loops; everything else goes through [`fold`].
fn fold_column(accs: &mut [Acc], gids: &[u32], vals: &[i64], func: AggFunc, domain: &Domain) {
    // Generic, not `dyn`: each loop below compiles to its own body.
    fn each(accs: &mut [Acc], gids: &[u32], vals: &[i64], f: impl Fn(&mut Acc, i64)) {
        for (&g, &v) in gids.iter().zip(vals) {
            f(&mut accs[g as usize], v);
        }
    }
    let null = match domain {
        Domain::Int => Some(NULL_I64),
        Domain::Token => Some(NULL_TOKEN as i64),
        Domain::Real | Domain::Dict(_) => None,
    };
    match func {
        AggFunc::Count => each(accs, gids, vals, |a, _| a.count += 1),
        _ if null.is_none_or(|n| vals.contains(&n)) => {
            each(accs, gids, vals, |a, v| fold(a, func, domain, v))
        }
        // An empty accumulator holds 0, so the first value needs no case.
        AggFunc::Sum => each(accs, gids, vals, |a, v| {
            a.value = a.value.wrapping_add(v);
            a.count += 1;
        }),
        AggFunc::Min => each(accs, gids, vals, |a, v| {
            a.value = if a.count == 0 { v } else { a.value.min(v) };
            a.count += 1;
        }),
        AggFunc::Max => each(accs, gids, vals, |a, v| {
            a.value = if a.count == 0 { v } else { a.value.max(v) };
            a.count += 1;
        }),
    }
}

/// Hash-aggregate state over any part of the input: the block-at-a-time
/// grouping kernel behind [`HashAggregate`] and the morsel pipeline's
/// per-worker partials. Group ids are dense, in first-insertion order.
pub(crate) struct HashGroups {
    map: GroupMap,
    /// `accs[agg][group]`.
    accs: Vec<Vec<Acc>>,
    /// Each group's earliest input position folded so far.
    first: Vec<u64>,
    /// Group ids of the block being folded.
    gids: Vec<u32>,
}

impl HashGroups {
    pub(crate) fn new(
        plan: &AggPlan,
        strategy: HashStrategy,
        packing: Option<KeyPacking>,
    ) -> HashGroups {
        HashGroups {
            map: GroupMap::new(strategy, packing),
            accs: vec![Vec::new(); plan.aggs.len()],
            first: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// Fold `block`, whose rows sit at input positions `at..`. Positions
    /// order the input as the serial pipeline reads it.
    pub(crate) fn fold_block(&mut self, plan: &AggPlan, block: &Block, at: u64) {
        self.map
            .group_ids(&plan.key_columns(block), block.len, &mut self.gids);
        let groups = self.map.len();
        // Min-update on every hit, not only on insert: a worker that
        // steals folds morsels out of input order.
        self.first.resize(groups, u64::MAX);
        for (&g, pos) in self.gids.iter().zip(at..) {
            let f = &mut self.first[g as usize];
            *f = (*f).min(pos);
        }
        plan.fold_block(&mut self.accs, &self.gids, groups, block);
    }

    /// Merge partials that folded disjoint parts of the input, taking
    /// their `degree × groups` entries in ascending earliest position: a
    /// group is allocated at its first occurrence in the whole input, so
    /// group ids come out in the serial pipeline's order. Exact for the
    /// merge-safe functions (see [`merge_acc`]).
    pub(crate) fn merge(
        plan: &AggPlan,
        strategy: HashStrategy,
        packing: Option<KeyPacking>,
        parts: Vec<HashGroups>,
    ) -> HashGroups {
        let mut order: Vec<(u64, u32, u32)> = parts
            .iter()
            .enumerate()
            .flat_map(|(p, part)| {
                part.first
                    .iter()
                    .enumerate()
                    .map(move |(g, &pos)| (pos, p as u32, g as u32))
            })
            .collect();
        // Each entry's position is a distinct input row: a total order.
        order.sort_unstable_by_key(|e| e.0);
        // Group the sorted entries' keys in one pass: ids come out in
        // ascending earliest position.
        let mut keys = vec![Vec::with_capacity(order.len()); plan.group_cols.len()];
        for &(_, p, g) in &order {
            for (col, &k) in keys.iter_mut().zip(parts[p as usize].map.key(g as usize)) {
                col.push(k);
            }
        }
        let keys: Vec<&[i64]> = keys.iter().map(Vec::as_slice).collect();
        let mut out = HashGroups::new(plan, strategy, packing);
        out.map.group_ids(&keys, order.len(), &mut out.gids);
        let groups = out.map.len();
        out.first.resize(groups, u64::MAX);
        for acc in &mut out.accs {
            acc.resize(groups, init_acc());
        }
        for (&(pos, p, g), &id) in order.iter().zip(&out.gids) {
            let id = id as usize;
            out.first[id] = out.first[id].min(pos);
            plan.merge_group(&mut out.accs, id, &parts[p as usize].accs, g as usize);
        }
        out
    }

    /// Finalize into column-major output blocks, one row per group in id
    /// order.
    pub(crate) fn finish(mut self, plan: &AggPlan) -> Vec<Block> {
        // A global aggregate (no group keys) over empty input still
        // produces one row of empty aggregates, SQL-style.
        if plan.group_cols.is_empty() && self.map.is_empty() {
            self.map.group_ids(&[], 1, &mut self.gids);
            for acc in &mut self.accs {
                acc.push(init_acc());
            }
        }
        let map = &self.map;
        let cols = plan.output_columns(map.len(), |g| map.key(g), &self.accs);
        emit_blocks(cols, plan.group_cols.len() + plan.aggs.len())
    }
}

/// Runs of contiguous equal keys over grouped input: the kernel behind
/// [`OrderedAggregate`] and the morsel pipeline's ordered partials. Run
/// `i` has key `keys[i * width..]`.
pub(crate) struct OrderedRuns {
    keys: Vec<i64>,
    /// `accs[agg][run]`.
    accs: Vec<Vec<Acc>>,
    len: usize,
    /// Run ids of the block being folded.
    gids: Vec<u32>,
}

impl OrderedRuns {
    pub(crate) fn new(plan: &AggPlan) -> OrderedRuns {
        OrderedRuns {
            keys: Vec::new(),
            accs: vec![Vec::new(); plan.aggs.len()],
            len: 0,
            gids: Vec::new(),
        }
    }

    fn key(&self, plan: &AggPlan, run: usize) -> &[i64] {
        let w = plan.group_cols.len();
        &self.keys[run * w..(run + 1) * w]
    }

    /// Fold the next block of grouped input. A run starts wherever any
    /// key column changes, found one column at a time.
    pub(crate) fn fold_block(&mut self, plan: &AggPlan, block: &Block) {
        let n = block.len;
        if n == 0 {
            return;
        }
        let cols = plan.key_columns(block);
        self.gids.clear();
        self.gids.resize(n, 0);
        for col in &cols {
            for (s, pair) in self.gids[1..].iter_mut().zip(col.windows(2)) {
                *s |= u32::from(pair[0] != pair[1]);
            }
        }
        let continues = self.len > 0
            && cols
                .iter()
                .zip(self.key(plan, self.len - 1))
                .all(|(c, &k)| c[0] == k);
        self.gids[0] = u32::from(!continues);
        let mut id = (self.len as u32).wrapping_sub(1);
        for (r, g) in self.gids.iter_mut().enumerate() {
            if *g == 1 {
                id = id.wrapping_add(1);
                self.keys.extend(cols.iter().map(|c| c[r]));
            }
            *g = id;
        }
        self.len = id as usize + 1;
        plan.fold_block(&mut self.accs, &self.gids, self.len, block);
    }

    /// Append the runs of the next part of the input, folding its first
    /// run into our last when that group continues across the boundary.
    pub(crate) fn append(&mut self, plan: &AggPlan, next: OrderedRuns) {
        let skip = usize::from(
            self.len > 0 && next.len > 0 && self.key(plan, self.len - 1) == next.key(plan, 0),
        );
        if skip == 1 {
            plan.merge_group(&mut self.accs, self.len - 1, &next.accs, 0);
        }
        self.keys
            .extend_from_slice(&next.keys[skip * plan.group_cols.len()..]);
        for (acc, src) in self.accs.iter_mut().zip(&next.accs) {
            acc.extend_from_slice(&src[skip..]);
        }
        self.len += next.len - skip;
    }

    /// Finalize and remove the first `n` runs, as column-major output.
    pub(crate) fn take(&mut self, plan: &AggPlan, n: usize) -> Vec<Vec<i64>> {
        let cols = plan.output_columns(n, |g| self.key(plan, g), &self.accs);
        self.keys.drain(..n * plan.group_cols.len());
        for acc in &mut self.accs {
            acc.drain(..n);
        }
        self.len -= n;
        cols
    }

    /// Finalize every run into output blocks.
    pub(crate) fn finish(mut self, plan: &AggPlan) -> Vec<Block> {
        let cols = self.take(plan, self.len);
        emit_blocks(cols, plan.group_cols.len() + plan.aggs.len())
    }
}

/// Hash aggregation with a tactically chosen strategy.
pub struct HashAggregate {
    input: Option<BoxOp>,
    plan: AggPlan,
    schema: Schema,
    output: Vec<Block>,
    next: usize,
    /// The strategy that was chosen (visible for tests and explain).
    pub strategy: HashStrategy,
    packing: Option<KeyPacking>,
}

impl HashAggregate {
    /// Aggregate `input` grouped by `group_cols`.
    pub fn new(input: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let in_schema = input.schema();
        let keys: Vec<&Field> = group_cols.iter().map(|&c| &in_schema.fields[c]).collect();
        let (strategy, packing) = tactical::choose_hash_strategy(&keys);
        let schema = output_schema(in_schema, &group_cols, &aggs);
        let plan = AggPlan::new(in_schema, group_cols, aggs);
        HashAggregate {
            input: Some(input),
            plan,
            schema,
            output: Vec::new(),
            next: 0,
            strategy,
            packing,
        }
    }

    fn run(&mut self) {
        let mut input = self.input.take().expect("aggregate already ran");
        let mut groups = HashGroups::new(&self.plan, self.strategy, self.packing.clone());
        let mut at = 0u64;
        while let Some(block) = input.next_block() {
            groups.fold_block(&self.plan, &block, at);
            at += block.len as u64;
        }
        self.output = groups.finish(&self.plan);
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.input.is_some() {
            self.run();
        }
        let b = self.output.get(self.next).cloned();
        self.next += 1;
        b
    }
}

/// Ordered (sandwiched) aggregation over grouped input: groups must arrive
/// contiguously. One pass, no hash table (paper §4.2.2).
pub struct OrderedAggregate {
    input: BoxOp,
    plan: AggPlan,
    schema: Schema,
    runs: OrderedRuns,
    done: bool,
}

impl OrderedAggregate {
    /// Aggregate grouped `input` by `group_cols`.
    pub fn new(input: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> OrderedAggregate {
        let in_schema = input.schema();
        let schema = output_schema(in_schema, &group_cols, &aggs);
        let plan = AggPlan::new(in_schema, group_cols, aggs);
        let runs = OrderedRuns::new(&plan);
        OrderedAggregate {
            input,
            plan,
            schema,
            runs,
            done: false,
        }
    }

    /// Runs no later input can extend: all but the open last one.
    fn complete_runs(&self) -> usize {
        if self.done {
            self.runs.len
        } else {
            self.runs.len.saturating_sub(1)
        }
    }
}

impl Operator for OrderedAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        while !self.done && self.complete_runs() < BLOCK_ROWS {
            match self.input.next_block() {
                Some(block) => self.runs.fold_block(&self.plan, &block),
                None => self.done = true,
            }
        }
        let n = self.complete_runs().min(BLOCK_ROWS);
        if n == 0 {
            return None;
        }
        Some(Block {
            columns: self.runs.take(&self.plan, n),
            len: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::{DataType, Value};

    fn table(n: i64, groups: i64) -> Arc<Table> {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        for i in 0..n {
            g.append_i64((i * groups) / n); // sorted groups
            v.append_i64(i % 97);
        }
        Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]))
    }

    fn collect(mut op: BoxOp) -> HashMap<i64, (i64, i64, i64)> {
        let mut out = HashMap::new();
        while let Some(b) = op.next_block() {
            for r in 0..b.len {
                out.insert(
                    b.columns[0][r],
                    (b.columns[1][r], b.columns[2][r], b.columns[3][r]),
                );
            }
        }
        out
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 1, "hi"),
        ]
    }

    #[test]
    fn hash_and_ordered_agree() {
        let t = table(50_000, 20);
        let hash = collect(Box::new(HashAggregate::new(
            Box::new(TableScan::new(t.clone())),
            vec![0],
            specs(),
        )));
        let ordered = collect(Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(t)),
            vec![0],
            specs(),
        )));
        assert_eq!(hash.len(), 20);
        assert_eq!(hash, ordered);
        let (n, lo, hi) = hash[&0];
        assert_eq!(n, 2500);
        assert_eq!(lo, 0);
        assert_eq!(hi, 96);
    }

    #[test]
    fn direct_strategy_chosen_for_narrow_keys() {
        // The group column was built through FlowTable, so min/max are in
        // its metadata; 0..19 fits in one byte → direct hashing.
        let t = table(10_000, 20);
        let agg = HashAggregate::new(Box::new(TableScan::new(t)), vec![0], specs());
        assert_eq!(agg.strategy, crate::hash::HashStrategy::Direct64K);
    }

    #[test]
    fn nulls_are_skipped() {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        for (gi, vi) in [(1, 5), (1, NULL_I64), (2, NULL_I64)] {
            g.append_i64(gi);
            v.append_i64(vi);
        }
        let t = Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]));
        let mut agg = HashAggregate::new(Box::new(TableScan::new(t)), vec![0], specs());
        let schema = agg.schema().clone();
        let b = agg.next_block().unwrap();
        // Group 1: count 2 rows, min/max skip the NULL.
        let row1 = (0..b.len).find(|&r| b.columns[0][r] == 1).unwrap();
        assert_eq!(b.columns[1][row1], 2);
        assert_eq!(b.columns[2][row1], 5);
        // Group 2: all-NULL min is NULL.
        let row2 = (0..b.len).find(|&r| b.columns[0][r] == 2).unwrap();
        assert_eq!(schema.fields[2].value_of(b.columns[2][row2]), Value::Null);
    }

    #[test]
    fn real_aggregation() {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Real, EncodingPolicy::default());
        for x in [1.5f64, 2.5, -3.0] {
            g.append_i64(0);
            v.append_f64(x);
        }
        let t = Arc::new(Table::new("t", vec![g.finish().column, v.finish().column]));
        let mut agg = HashAggregate::new(
            Box::new(TableScan::new(t)),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, 1, "s"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
            ],
        );
        let b = agg.next_block().unwrap();
        assert_eq!(f64::from_bits(b.columns[1][0] as u64), 1.0);
        assert_eq!(f64::from_bits(b.columns[2][0] as u64), -3.0);
    }

    #[test]
    fn global_aggregate_no_groups() {
        let t = table(1000, 4);
        let mut agg = HashAggregate::new(
            Box::new(TableScan::new(t)),
            vec![],
            vec![AggSpec::new(AggFunc::Count, 0, "n")],
        );
        let b = agg.next_block().unwrap();
        assert_eq!(b.len, 1);
        assert_eq!(b.columns[0][0], 1000);
    }
}
