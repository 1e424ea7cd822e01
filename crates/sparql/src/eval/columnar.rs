//! Vectorized BGP execution: sorted-ID merge joins over columnar batches.
//!
//! The row executor ([`super::Compiled::eval_block`]) extends bindings one
//! row at a time, probing the store's hash indexes per row. For flat
//! blocks — patterns and FILTERs, no OPTIONAL/UNION children, i.e. the
//! shape of every OLAP star query RE²xOLAP generates and of every
//! refinement of one — this module evaluates the planned pattern chain
//! over a [`Batch`] instead: a struct-of-arrays layout with one dense
//! `Vec<TermId>` column per bound variable. The batch is also what
//! projection and aggregation read ([`super::Table`]); no row is ever
//! materialized.
//!
//! Per pattern, the kernel picks one of three strategies:
//!
//! 1. **Semijoin** (no new variable): every position resolves to a
//!    constant or an already-bound column, so the pattern only filters the
//!    batch. With one variable position the sorted posting list is
//!    intersected against the column — a two-pointer *merge intersection*
//!    when the column itself is sorted, per-row binary search otherwise.
//! 2. **Extend** (exactly one new variable): the matching posting list
//!    (`objects`/`subjects`/`predicates_between` — sorted by id, an
//!    invariant `re2x-rdf` maintains on insert) is appended wholesale with
//!    `extend_from_slice`, and survivor columns are gathered once per
//!    batch rather than cloned per row. When the two resolved positions
//!    are constants the list is fetched once for the whole batch.
//! 3. **Fallback** (several new variables, or a variable repeated within
//!    the pattern): per-row enumeration through the same
//!    [`re2x_rdf::Graph::for_each_matching_until`] walk the row executor
//!    uses.
//!
//! All three enumerate matches in exactly the index order the row
//! executor sees, and a FILTER — applied after the step that binds the
//! last of its variables, the row executor's own schedule — only removes
//! rows: it is a pure function of the ids in its variables' columns (see
//! [`crate::expr::CompiledExpr`]), evaluated per batch row into a
//! selection the columns are gathered through. So the produced rows are
//! *byte-identical* to [`super::Compiled::eval_block`] — the differential
//! suites (`tests/plan_differential.rs`) hold this across datasets, plan
//! modes, and `ShardedEndpoint` composition.

use super::{Compiled, CompiledFilter, FlatPattern, RowOf, Slot, Table};
use re2x_rdf::{Graph, TermId};

/// Whether the compiled query's WHERE tree is a shape the columnar kernel
/// covers: a single flat block. Blocks with OPTIONAL/UNION children stay
/// on the row executor.
pub(super) fn eligible(compiled: &Compiled) -> bool {
    compiled.root.children.is_empty()
}

/// Runs the root block's planned pattern chain and scheduled filters over
/// columnar batches, starting from `seed` (same solutions, in the same
/// order, as [`super::Compiled::eval_block`] over `seed`'s rows) — or
/// returns `None` as soon as a batch would outgrow `budget` rows, before
/// materializing it. A caller that only wants the first `budget` rows then
/// gets them from the depth-first search instead, so its work stays
/// bounded however large the join is; `usize::MAX` never gives up.
pub(super) fn run(
    compiled: &Compiled,
    graph: &Graph,
    seed: &Batch,
    budget: usize,
) -> Option<Batch> {
    let prebound: Vec<bool> = seed.cols.iter().map(Option::is_some).collect();
    let root = &compiled.root;
    let order = compiled.plan_block(graph, root, &prebound);
    let filter_step = compiled.filter_schedule(root, &order, &prebound);
    let due = |at: usize| -> Vec<&CompiledFilter> {
        let scheduled = root.filters.iter().zip(&filter_step);
        scheduled
            .filter(|(_, &s)| s == at)
            .map(|(f, _)| f)
            .collect()
    };
    let mut batch = seed.clone();
    if order.is_empty() {
        // a pattern-free block decides its variable-free filters up front
        batch = select(graph, batch, &due(0));
    }
    for (step, &pi) in order.iter().enumerate() {
        batch = extend(graph, &batch, root.patterns[pi], budget)?;
        batch = select(graph, batch, &due(step));
        if batch.len == 0 {
            return Some(batch);
        }
    }
    // filters naming a variable no pattern binds
    Some(select(graph, batch, &due(usize::MAX)))
}

/// Keeps the batch rows every one of `filters` keeps, in order.
fn select(graph: &Graph, batch: Batch, filters: &[&CompiledFilter]) -> Batch {
    if filters.is_empty() {
        return batch;
    }
    let sel: Vec<usize> = (0..batch.len)
        .filter(|&i| {
            let row = RowOf(&batch, i);
            filters.iter().all(|f| f.test.keeps(graph, &row))
        })
        .collect();
    if sel.len() == batch.len {
        return batch;
    }
    gather(&batch, &sel, Vec::new())
}

/// A columnar batch of partial solutions: one dense column of interned
/// term ids per *bound* variable (`None` for variables not yet bound by
/// any pattern), all columns of identical length.
#[derive(Clone)]
pub(super) struct Batch {
    cols: Vec<Option<Vec<TermId>>>,
    len: usize,
}

impl Table for Batch {
    fn len(&self) -> usize {
        self.len
    }

    fn cell(&self, row: usize, slot: usize) -> Option<TermId> {
        self.cols.get(slot)?.as_ref().map(|col| col[row])
    }
}

impl Batch {
    /// The seed batch: a single row binding nothing (the join identity,
    /// mirroring the row executor's all-`None` seed row).
    pub(super) fn seed(nvars: usize) -> Self {
        Batch {
            cols: vec![None; nvars],
            len: 1,
        }
    }

    fn empty(nvars: usize) -> Self {
        Batch {
            cols: vec![None; nvars],
            len: 0,
        }
    }

    /// A batch over `nvars` variables binding only `var`, one row per id.
    pub(super) fn single_column(nvars: usize, var: usize, ids: Vec<TermId>) -> Self {
        let mut batch = Batch::empty(nvars);
        batch.len = ids.len();
        batch.cols[var] = Some(ids);
        batch
    }

    /// Drops every row after the first `len`.
    pub(super) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        for col in self.cols.iter_mut().flatten() {
            col.truncate(len);
        }
    }
}

/// A pattern slot resolved against the batch's bound columns.
#[derive(Clone, Copy, PartialEq)]
enum RSlot {
    /// A constant term id.
    Const(TermId),
    /// A variable with a bound column.
    Col(usize),
    /// A variable this pattern binds for the first time.
    New(usize),
    /// A constant absent from the graph: the pattern cannot match.
    Absent,
}

fn resolve(slot: Slot, batch: &Batch) -> RSlot {
    match slot {
        Slot::Const(id) => RSlot::Const(id),
        Slot::Absent => RSlot::Absent,
        Slot::Var(v) if batch.cols[v].is_some() => RSlot::Col(v),
        Slot::Var(v) => RSlot::New(v),
    }
}

/// Joins one pattern into the batch; `None` if the result would exceed
/// `budget` rows.
fn extend(graph: &Graph, batch: &Batch, pattern: FlatPattern, budget: usize) -> Option<Batch> {
    let nvars = batch.cols.len();
    let s = resolve(pattern.s, batch);
    let p = resolve(pattern.p, batch);
    let o = resolve(pattern.o, batch);
    if [s, p, o].contains(&RSlot::Absent) {
        return Some(Batch::empty(nvars));
    }
    let news: Vec<usize> = [s, p, o]
        .iter()
        .filter_map(|r| match r {
            RSlot::New(v) => Some(*v),
            _ => None,
        })
        .collect();
    let repeated_new = match news.as_slice() {
        [a, b] => a == b,
        [a, b, c] => a == b || b == c || a == c,
        _ => false,
    };
    match (news.len(), repeated_new) {
        (0, _) => Some(semijoin(graph, batch, s, p, o)), // only ever shrinks
        (1, false) => extend_one(graph, batch, s, p, o, budget),
        _ => fallback(graph, batch, pattern, budget),
    }
}

/// Reads the value a resolved slot takes on batch row `i`. Only the keyed
/// paths (semijoin, single-extension) call this, and they never pass
/// `New`/`Absent`; the `TermId(0)` placeholder on those arms keeps the
/// function panic-free, and would at worst turn a probe into a miss —
/// never fabricate a row.
fn at(batch: &Batch, slot: RSlot, i: usize) -> TermId {
    match slot {
        RSlot::Const(id) => id,
        RSlot::Col(v) => batch.cols[v].as_ref().map_or(TermId(0), |col| col[i]),
        RSlot::New(_) | RSlot::Absent => TermId(0),
    }
}

/// No new variable: the pattern is a pure filter over existing rows.
fn semijoin(graph: &Graph, batch: &Batch, s: RSlot, p: RSlot, o: RSlot) -> Batch {
    let mut keep: Vec<bool> = Vec::with_capacity(batch.len);
    // one variable position against two constants: intersect the sorted
    // posting list with the column directly
    let single = match (s, p, o) {
        (RSlot::Col(v), RSlot::Const(pc), RSlot::Const(oc)) => Some((v, graph.subjects(pc, oc))),
        (RSlot::Const(sc), RSlot::Const(pc), RSlot::Col(v)) => Some((v, graph.objects(sc, pc))),
        (RSlot::Const(sc), RSlot::Col(v), RSlot::Const(oc)) => {
            Some((v, graph.predicates_between(sc, oc)))
        }
        _ => None,
    };
    if let Some((v, list)) = single {
        let col = batch.cols[v].as_deref().unwrap_or(&[]);
        if col.is_sorted() {
            // merge intersection, galloping through the list: a short
            // column over a long posting list skips most of it
            let mut j = 0usize;
            for &id in col {
                j += gallop(&list[j..], id);
                keep.push(list.get(j) == Some(&id));
            }
        } else {
            for &id in col {
                keep.push(list.binary_search(&id).is_ok());
            }
        }
    } else {
        for i in 0..batch.len {
            keep.push(graph.contains_ids(at(batch, s, i), at(batch, p, i), at(batch, o, i)));
        }
    }
    gather(batch, &keep_to_sel(&keep), Vec::new())
}

/// How many leading entries of the sorted `list` are below `id`: probes 1,
/// 2, 4, … entries ahead until one is not, then binary-searches the last
/// stride — O(log distance) instead of a walk over the distance.
fn gallop(list: &[TermId], id: TermId) -> usize {
    let mut below = 0; // list[..below] < id
    let mut step = 1;
    while step <= list.len() && list[step - 1] < id {
        below = step;
        step *= 2;
    }
    let end = step.min(list.len());
    below + list[below..end].partition_point(|&x| x < id)
}

fn keep_to_sel(keep: &[bool]) -> Vec<usize> {
    keep.iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i))
        .collect()
}

/// Exactly one fresh variable: append each row's sorted match list in one
/// `extend_from_slice`, recording the source row per output row.
fn extend_one(
    graph: &Graph,
    batch: &Batch,
    s: RSlot,
    p: RSlot,
    o: RSlot,
    budget: usize,
) -> Option<Batch> {
    // which position holds the fresh variable (New in at most one slot)
    let new_var = match (s, p, o) {
        (_, _, RSlot::New(v)) | (RSlot::New(v), _, _) | (_, RSlot::New(v), _) => v,
        // extend() dispatches here only with exactly one New slot
        _ => return Some(gather(batch, &[], Vec::new())),
    };
    let mut sel: Vec<usize> = Vec::new();
    let mut new_col: Vec<TermId> = Vec::new();
    for i in 0..batch.len {
        let list: &[TermId] = match (s, p, o) {
            (_, _, RSlot::New(_)) => graph.objects(at(batch, s, i), at(batch, p, i)),
            (RSlot::New(_), _, _) => graph.subjects(at(batch, p, i), at(batch, o, i)),
            (_, RSlot::New(_), _) => graph.predicates_between(at(batch, s, i), at(batch, o, i)),
            _ => &[],
        };
        if list.is_empty() {
            continue;
        }
        if list.len() > budget - sel.len() {
            return None;
        }
        new_col.extend_from_slice(list);
        sel.extend(std::iter::repeat_n(i, list.len()));
    }
    Some(gather(batch, &sel, vec![(new_var, new_col)]))
}

/// General per-row fallback mirroring [`super::Compiled::extend_row`]:
/// used for patterns with two or more fresh variables or a variable
/// repeated inside the pattern. Enumeration order equals the row
/// executor's, so byte-identity is preserved.
fn fallback(graph: &Graph, batch: &Batch, pattern: FlatPattern, budget: usize) -> Option<Batch> {
    let slots = [pattern.s, pattern.p, pattern.o];
    let mut new_vars: Vec<usize> = slots
        .iter()
        .filter_map(|slot| match slot {
            Slot::Var(v) if batch.cols[*v].is_none() => Some(*v),
            _ => None,
        })
        .collect();
    new_vars.sort_unstable();
    new_vars.dedup();
    let mut sel: Vec<usize> = Vec::new();
    let mut new_cols: Vec<(usize, Vec<TermId>)> =
        new_vars.iter().map(|&v| (v, Vec::new())).collect();
    let mut scratch: Vec<Option<TermId>> = vec![None; new_vars.len()];
    for i in 0..batch.len {
        let fixed = |slot: Slot| match slot {
            Slot::Const(id) => Some(id),
            Slot::Var(v) => batch.cols[v].as_ref().map(|col| col[i]),
            Slot::Absent => None, // filtered out by extend()
        };
        let (s, p, o) = (fixed(pattern.s), fixed(pattern.p), fixed(pattern.o));
        let over_budget = graph.for_each_matching_until(s, p, o, |t| {
            scratch.iter_mut().for_each(|c| *c = None);
            for (slot, value) in [(pattern.s, t.s), (pattern.p, t.p), (pattern.o, t.o)] {
                if let Slot::Var(v) = slot {
                    if let Ok(k) = new_vars.binary_search(&v) {
                        match scratch[k] {
                            Some(existing) if existing != value => return false, // inconsistent
                            _ => scratch[k] = Some(value),
                        }
                    }
                }
            }
            if sel.len() == budget {
                return true;
            }
            sel.push(i);
            for (k, cell) in scratch.iter().enumerate() {
                if let Some(id) = *cell {
                    new_cols[k].1.push(id);
                }
            }
            false
        });
        if over_budget {
            return None;
        }
    }
    Some(gather(batch, &sel, new_cols))
}

/// Builds the successor batch: existing columns gathered through `sel`
/// (source row index per output row), plus freshly bound columns.
fn gather(batch: &Batch, sel: &[usize], new_cols: Vec<(usize, Vec<TermId>)>) -> Batch {
    let mut cols: Vec<Option<Vec<TermId>>> = vec![None; batch.cols.len()];
    for (v, col) in batch.cols.iter().enumerate() {
        if let Some(col) = col {
            cols[v] = Some(sel.iter().map(|&i| col[i]).collect());
        }
    }
    for (v, col) in new_cols {
        debug_assert_eq!(col.len(), sel.len());
        cols[v] = Some(col);
    }
    Batch {
        cols,
        len: sel.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_testkit::{check, TestRng};

    /// The membership a one-entry-at-a-time merge computes.
    fn linear_merge(col: &[TermId], list: &[TermId]) -> Vec<bool> {
        let mut j = 0usize;
        col.iter()
            .map(|&id| {
                while j < list.len() && list[j] < id {
                    j += 1;
                }
                j < list.len() && list[j] == id
            })
            .collect()
    }

    fn galloping_merge(col: &[TermId], list: &[TermId]) -> Vec<bool> {
        let mut j = 0usize;
        col.iter()
            .map(|&id| {
                j += gallop(&list[j..], id);
                list.get(j) == Some(&id)
            })
            .collect()
    }

    fn sorted_ids(rng: &mut TestRng, len: usize, lo: u32, hi: u32, distinct: bool) -> Vec<TermId> {
        let mut ids: Vec<TermId> = (0..len).map(|_| TermId(rng.gen_range(lo..hi))).collect();
        ids.sort_unstable();
        if distinct {
            ids.dedup();
        }
        ids
    }

    #[test]
    fn gallop_equals_the_linear_merge() {
        check(
            "columnar_gallop_equals_linear_merge",
            |rng: &mut TestRng| {
                // posting lists are distinct ids; a sorted column may repeat
                let list_len = *rng.pick(&[0usize, 1, 2, 7, 64, 500]);
                let list = sorted_ids(rng, list_len, 100, 1_000, true);
                let col_len = *rng.pick(&[0usize, 1, 3, 20, 130]);
                // the column within the list's range, across it, or wholly
                // below or above it
                let (lo, hi) = *rng.pick(&[(100, 1_000), (0, 1_100), (0, 100), (1_000, 2_000)]);
                let col = sorted_ids(rng, col_len, lo, hi, false);
                assert_eq!(galloping_merge(&col, &list), linear_merge(&col, &list));
            },
        );
    }

    #[test]
    fn gallop_counts_the_entries_below() {
        let list: Vec<TermId> = [2, 4, 6, 8, 10].map(TermId).to_vec();
        for id in 0..12 {
            let below = list.iter().filter(|&&x| x < TermId(id)).count();
            assert_eq!(gallop(&list, TermId(id)), below, "{id}");
        }
        assert_eq!(gallop(&[], TermId(3)), 0);
    }
}
