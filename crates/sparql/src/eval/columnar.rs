//! Vectorized BGP execution: sorted-ID merge joins over columnar batches.
//!
//! The row executor ([`super::Compiled::eval_block`], which
//! [`super::evaluate_reference`] runs) extends bindings one row at a time,
//! probing the store's indexes per row. For flat blocks — patterns and
//! FILTERs, no OPTIONAL/UNION children, i.e. the shape of every OLAP star
//! query RE²xOLAP generates and of every refinement of one — this module
//! evaluates the planned pattern chain over a [`Batch`] instead: a
//! struct-of-arrays layout with one dense `Vec<TermId>` column per bound
//! variable. The batch is also what projection and aggregation read
//! ([`super::Table`]); no row is ever materialized.
//!
//! The planned order is walked in three join forms, and cut by a fourth:
//!
//! 1. **Semijoin** (no new variable): every position resolves to a
//!    constant or an already-bound column, so the pattern only filters the
//!    batch — and hands it on untouched when it drops no row. With one
//!    variable position the sorted posting list is intersected against the
//!    column: a galloping merge ([`re2x_rdf::gallop`]) when the column
//!    itself is sorted, per-row binary search otherwise.
//! 2. **Star walk** (one new variable per step): a run of consecutive arms
//!    `?v <p> ?x` on one bound column `?v`, each `?x` fresh and distinct,
//!    no filter or reach due inside ([`star_runs`]), becomes one step. Per
//!    row it makes one SPO group lookup for the row's `?v` and one inner
//!    lookup per arm, through a [`re2x_rdf::Cursor`]: the cursor keeps the last
//!    subject's group and gallops forward over ascending subjects, so a
//!    walk over the sorted observations of a star never restarts a search
//!    over all subjects. The row's matches — sorted posting lists, an
//!    invariant `re2x-rdf` maintains — are emitted as the nested product
//!    the separate steps would produce (the last arm varies fastest), and
//!    the batch's columns are gathered once for the whole run. A one-arm
//!    run is the same code. The other one-fresh-variable shapes (a reverse
//!    arm `?x <p> ?v`, a variable predicate, a constant subject) append
//!    each row's posting list the same way, read through a cursor too, so
//!    a repeated key returns the last list.
//! 3. **Fallback** (several new variables, or a variable repeated within
//!    the pattern): per-row enumeration through the same
//!    [`re2x_rdf::Graph::for_each_matching_until`] walk the row executor
//!    uses.
//! 4. **Reach** (no pattern): right after the step that first binds a hub
//!    variable — the observation `?o` a Similarity filter's grouping
//!    variables hang off — its column is cut to the hub's reach
//!    ([`reaches`]): the subjects the filter's member sets lead back to
//!    along the variables' arms, by the semijoin's galloping merge. The
//!    filter still runs where it is scheduled.
//!
//! The join forms enumerate matches in exactly the index order the row
//! executor sees, and a FILTER — applied after the step that binds the
//! last of its variables, the row executor's own schedule — only removes
//! rows: it is a pure function of the ids in its variables' columns (see
//! [`crate::expr::CompiledExpr`]), evaluated per batch row into a
//! selection the columns are gathered through; a reach only removes rows
//! the filter would remove later. So the produced rows are
//! *byte-identical* to [`super::Compiled::eval_block`] — the differential
//! suite (`tests/plan_differential.rs`) holds [`super::evaluate`] to
//! [`super::evaluate_reference`] across datasets, live-written graphs,
//! seeded random queries and `ShardedEndpoint` composition.

use super::{Block, Compiled, CompiledFilter, FlatPattern, RowOf, Slot, Table, FAR_FEWER};
use crate::expr::implied_ids;
use re2x_rdf::{gallop, Graph, TermId};
use std::ops::Range;

/// Whether the compiled query's WHERE tree is a shape the columnar kernel
/// covers: a single flat block. Blocks with OPTIONAL/UNION children stay
/// on the row executor.
pub(super) fn eligible(compiled: &Compiled) -> bool {
    compiled.root.children.is_empty()
}

/// How the kernel runs the root block from a seed binding `prebound` — the
/// one decision [`run`] executes and [`super::explain`] prints: the planned
/// order, the step after which each filter selects, the reaches and the
/// star runs.
pub(super) struct Schedule {
    pub(super) order: Vec<usize>,
    pub(super) filter_step: Vec<usize>,
    pub(super) reaches: Vec<Reach>,
    pub(super) runs: Vec<StarRun>,
}

/// Decides the [`Schedule`] of the root block.
pub(super) fn schedule(compiled: &Compiled, graph: &Graph, prebound: &[bool]) -> Schedule {
    let root = &compiled.root;
    let order = compiled.plan_block(graph, root, prebound);
    let filter_step = compiled.filter_schedule(root, &order, prebound);
    let reaches = reaches(compiled, graph, &order, prebound);
    let runs = star_runs(root, &order, &filter_step, &reaches, prebound);
    Schedule {
        order,
        filter_step,
        reaches,
        runs,
    }
}

/// The ids a filter's member sets let a hub variable take ([`reaches`]).
pub(super) struct Reach {
    /// The hub: the variable the admitted variables' arms lead back to.
    pub(super) hub: usize,
    /// The step that first binds the hub; the reach applies right after it.
    pub(super) step: usize,
    /// The ids the hub may take, ascending.
    pub(super) ids: Vec<TermId>,
    /// Each admitted variable and the size of its member set.
    pub(super) from: Vec<(usize, usize)>,
}

/// The reaches of the root block's planned `order`, by step. A filter
/// variable `?v` with an implied member set `S` ([`implied_ids`]) is
/// followed back along its arms `?x <p> ?y` to its hub ([`arms_to_hub`]).
/// Every solution the filter keeps binds `?v` into `S` and matches each
/// arm, so it binds the hub to an id reached from `S` by
/// [`Graph::subjects`], arm by arm — the reach the hub's column may be cut
/// to. (`S` holds a literal spelling a member only while the text index
/// lists it, which it does for every object of a triple, as `?v` is.) A
/// variable is admitted only when `S` is [`FAR_FEWER`] times fewer
/// than the objects of its own arm's predicate (an O(1) statistic), and
/// the reaches of admitted variables on one hub intersect. A hub the seed
/// binds gets none.
fn reaches(compiled: &Compiled, graph: &Graph, order: &[usize], prebound: &[bool]) -> Vec<Reach> {
    let block = &compiled.root;
    let mut reaches: Vec<Reach> = Vec::new();
    if block.filters.is_empty() {
        return reaches;
    }
    for filter in &block.filters {
        for &v in &filter.vars {
            let Some((hub, arms)) = arms_to_hub(block, v).filter(|&(hub, _)| !prebound[hub]) else {
                continue;
            };
            let Some(mut ids) = implied_ids(filter.expr, &compiled.var_names[v], graph) else {
                continue;
            };
            let members = ids.len();
            let domain = graph.predicate_stats(arms[0]).distinct_objects;
            if (members as u64).saturating_mul(FAR_FEWER) >= domain as u64 {
                continue;
            }
            let binds_hub = |&pi: &usize| block.patterns[pi].vars().any(|x| x == hub);
            let Some(step) = order.iter().position(binds_hub) else {
                continue;
            };
            for &p in &arms {
                let back = ids.iter().flat_map(|&id| graph.subjects(p, id));
                ids = back.copied().collect();
                ids.sort_unstable();
                ids.dedup();
            }
            match reaches.iter_mut().find(|reach| reach.hub == hub) {
                Some(reach) => {
                    reach.ids.retain(|id| ids.binary_search(id).is_ok());
                    reach.from.push((v, members));
                }
                None => reaches.push(Reach {
                    hub,
                    step,
                    ids,
                    from: vec![(v, members)],
                }),
            }
        }
    }
    reaches.sort_by_key(|reach| reach.step);
    reaches
}

/// The hub of `v` and the predicates of the arms `?x <p> ?y` leading back
/// to it, `v`'s own arm first — `None` when no arm with a constant
/// predicate ends in `v`. Walking back from `v` along the arm into each
/// variable, the hub is the first subject some pattern besides that arm
/// mentions, unless the one such pattern is the arm into it (a link of a
/// property path, walked through).
fn arms_to_hub(block: &Block, v: usize) -> Option<(usize, Vec<TermId>)> {
    let arm_into = |w: usize| {
        let mut patterns = block.patterns.iter().enumerate();
        patterns.find_map(|(i, pattern)| match (pattern.s, pattern.p, pattern.o) {
            (Slot::Var(x), Slot::Const(p), Slot::Var(o)) if o == w && x != w => Some((i, x, p)),
            _ => None,
        })
    };
    let (mut at, mut x, p) = arm_into(v)?;
    let mut arms = vec![p];
    while arms.len() < block.patterns.len() {
        let mut others = (block.patterns.iter().enumerate())
            .filter(|&(i, pattern)| i != at && pattern.vars().any(|y| y == x));
        let link = match (others.next(), others.next()) {
            (Some((i, _)), None) => arm_into(x).filter(|&(j, ..)| j == i),
            _ => None,
        };
        let Some((j, y, p)) = link else {
            break;
        };
        arms.push(p);
        (at, x) = (j, y);
    }
    Some((x, arms))
}

/// A run of the planned order the kernel joins in one star walk.
pub(super) struct StarRun {
    /// The bound variable `?v` every arm starts from.
    pub(super) on: usize,
    /// The run's positions in the planned order.
    pub(super) steps: Range<usize>,
    /// Each arm's predicate and fresh variable `?x`, in step order.
    arms: Vec<(TermId, usize)>,
}

/// The star runs of a block's planned `order`, ascending. A run is a
/// maximal sequence of consecutive steps, each an arm `?v <p> ?x` on the
/// same variable `?v` bound before the run (by `prebound` or an earlier
/// step) with `?x` bound by nothing before it — so the `?x`s are distinct
/// — and no filter (by `filter_step`) or reach due after any step but the
/// run's last. A single arm is a run of one.
fn star_runs(
    block: &Block,
    order: &[usize],
    filter_step: &[usize],
    reaches: &[Reach],
    prebound: &[bool],
) -> Vec<StarRun> {
    let mut bound = prebound.to_vec();
    let mut runs: Vec<StarRun> = Vec::new();
    let selects_after =
        |step: usize| filter_step.contains(&step) || reaches.iter().any(|reach| reach.step == step);
    for (step, &pi) in order.iter().enumerate() {
        let pattern = block.patterns[pi];
        if let (Slot::Var(on), Slot::Const(p), Slot::Var(x)) = (pattern.s, pattern.p, pattern.o) {
            if bound[on] && !bound[x] {
                match runs.last_mut() {
                    Some(run)
                        if run.on == on && run.steps.end == step && !selects_after(step - 1) =>
                    {
                        run.steps.end += 1;
                        run.arms.push((p, x));
                    }
                    _ => runs.push(StarRun {
                        on,
                        steps: step..step + 1,
                        arms: vec![(p, x)],
                    }),
                }
            }
        }
        pattern.vars().for_each(|v| bound[v] = true);
    }
    runs
}

/// Runs the root block's planned pattern chain and scheduled filters over
/// columnar batches, starting from `seed` (same solutions, in the same
/// order, as [`super::Compiled::eval_block`] over `seed`'s rows) — or
/// returns `None` as soon as a step's batch would outgrow `budget` rows,
/// before materializing it. A caller that only wants the first `budget`
/// rows then gets them from the depth-first search instead, so its work
/// stays bounded however large the join is; `usize::MAX` never gives up.
pub(super) fn run(
    compiled: &Compiled,
    graph: &Graph,
    seed: &Batch,
    budget: usize,
) -> Option<Batch> {
    let prebound: Vec<bool> = seed.cols.iter().map(Option::is_some).collect();
    let root = &compiled.root;
    let Schedule {
        order,
        filter_step,
        reaches,
        runs,
    } = schedule(compiled, graph, &prebound);
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
    let mut runs = runs.iter().peekable();
    let mut step = 0;
    while step < order.len() {
        let last = match runs.next_if(|run| run.steps.start == step) {
            Some(run) => {
                batch = star(graph, &batch, run.on, &run.arms, budget)?;
                run.steps.end - 1
            }
            None => {
                batch = extend(graph, batch, root.patterns[order[step]], budget)?;
                step
            }
        };
        for reach in reaches.iter().filter(|reach| reach.step == last) {
            batch = restrict(batch, reach.hub, &reach.ids);
        }
        batch = select(graph, batch, &due(last));
        if batch.len == 0 {
            return Some(batch);
        }
        step = last + 1;
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
    keep(batch, &sel)
}

/// The rows `sel` selects, ascending: the batch itself if that is all of
/// them.
fn keep(batch: Batch, sel: &[usize]) -> Batch {
    if sel.len() == batch.len {
        return batch;
    }
    gather(&batch, sel, Vec::new())
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

    /// The column bound at `slot` (empty if the slot is unbound).
    pub(super) fn into_column(self, slot: usize) -> Vec<TermId> {
        self.cols
            .into_iter()
            .nth(slot)
            .flatten()
            .unwrap_or_default()
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

/// Joins one pattern that is not an arm of a star run into the batch;
/// `None` if the result would exceed `budget` rows.
fn extend(graph: &Graph, batch: Batch, pattern: FlatPattern, budget: usize) -> Option<Batch> {
    let nvars = batch.cols.len();
    let s = resolve(pattern.s, &batch);
    let p = resolve(pattern.p, &batch);
    let o = resolve(pattern.o, &batch);
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
        (1, false) => extend_one(graph, &batch, s, p, o, budget),
        _ => fallback(graph, &batch, pattern, budget),
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
fn semijoin(graph: &Graph, batch: Batch, s: RSlot, p: RSlot, o: RSlot) -> Batch {
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
        return restrict(batch, v, list);
    }
    let mut cursor = graph.objects_cursor();
    let mut sel: Vec<usize> = Vec::with_capacity(batch.len);
    sel.extend((0..batch.len).filter(|&i| {
        let objects = cursor.get(at(&batch, s, i), at(&batch, p, i));
        objects.binary_search(&at(&batch, o, i)).is_ok()
    }));
    keep(batch, &sel)
}

/// The rows whose `v` is in the ascending `list`, in order: a merge
/// intersection galloping through the list when the column is sorted — a
/// short column over a long posting list skips most of it — and a binary
/// search per row otherwise.
fn restrict(batch: Batch, v: usize, list: &[TermId]) -> Batch {
    let col = batch.cols[v].as_deref().unwrap_or(&[]);
    let mut sel: Vec<usize> = Vec::with_capacity(col.len());
    if col.is_sorted() {
        let mut j = 0usize;
        for (i, &id) in col.iter().enumerate() {
            j += gallop(&list[j..], id);
            if list.get(j) == Some(&id) {
                sel.push(i);
            }
        }
    } else {
        sel.extend((0..col.len()).filter(|&i| list.binary_search(&col[i]).is_ok()));
    }
    keep(batch, &sel)
}

/// Joins a star run's arms `?v <p> ?x` — `?v` the column `on`, `arms` each
/// arm's predicate and fresh variable — into the batch: per row, one SPO
/// group lookup and one inner lookup per arm, the row's matches emitted as
/// their nested product (the last arm varies fastest, as the arms joined
/// one at a time produce them), every column gathered once. `None` if the
/// result would exceed `budget` rows.
fn star(
    graph: &Graph,
    batch: &Batch,
    on: usize,
    arms: &[(TermId, usize)],
    budget: usize,
) -> Option<Batch> {
    let subjects = batch.cols[on].as_deref().unwrap_or(&[]);
    let mut cursor = graph.objects_cursor();
    let mut lists: Vec<&[TermId]> = vec![&[]; arms.len()];
    let mut sel: Vec<usize> = Vec::new();
    let mut new_cols: Vec<Vec<TermId>> = vec![Vec::new(); arms.len()];
    'rows: for (i, &s) in subjects.iter().enumerate() {
        let mut rows = 1usize;
        for (list, &(p, _)) in lists.iter_mut().zip(arms) {
            *list = cursor.get(s, p);
            rows = rows.saturating_mul(list.len());
            if rows == 0 {
                continue 'rows;
            }
        }
        if rows > budget - sel.len() {
            return None;
        }
        if rows == 1 {
            // every arm single-valued, as a star's arms mostly are
            sel.push(i);
            for (col, list) in new_cols.iter_mut().zip(&lists) {
                col.push(list[0]);
            }
            continue;
        }
        sel.extend(std::iter::repeat_n(i, rows));
        // arm k's list is tiled `rows / (repeat · len)` times, each id
        // repeated once per combination of the arms after it
        let mut repeat = rows;
        for (col, list) in new_cols.iter_mut().zip(&lists) {
            repeat /= list.len();
            for _ in 0..rows / (repeat * list.len()) {
                for &x in *list {
                    col.extend(std::iter::repeat_n(x, repeat));
                }
            }
        }
    }
    let fresh = arms.iter().map(|&(_, x)| x).zip(new_cols).collect();
    Some(gather(batch, &sel, fresh))
}

/// Exactly one fresh variable, in a shape no star run covers: append each
/// row's sorted match list, read through a cursor over the index that
/// lists the fresh position, in one `extend_from_slice`, recording the
/// source row per output row.
fn extend_one(
    graph: &Graph,
    batch: &Batch,
    s: RSlot,
    p: RSlot,
    o: RSlot,
    budget: usize,
) -> Option<Batch> {
    // the fresh variable (New in exactly one slot), the cursor listing it
    // and the two resolved positions in that index's key order
    let (new_var, mut cursor, a, b) = match (s, p, o) {
        (_, _, RSlot::New(v)) => (v, graph.objects_cursor(), s, p),
        (RSlot::New(v), _, _) => (v, graph.subjects_cursor(), p, o),
        (_, RSlot::New(v), _) => (v, graph.predicates_cursor(), o, s),
        // extend() dispatches here only with exactly one New slot
        _ => return Some(gather(batch, &[], Vec::new())),
    };
    let mut sel: Vec<usize> = Vec::new();
    let mut new_col: Vec<TermId> = Vec::new();
    for i in 0..batch.len {
        let list = cursor.get(at(batch, a, i), at(batch, b, i));
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
