//! The one acceptance harness behind `chaos_matrix`, `repair_matrix`,
//! `failover_matrix`, `bonded_matrix` and `nleg_matrix` (DESIGN.md §10.7).
//!
//! A suite is data: [`Section`]s of named members, one [`MatrixSpec`]
//! each, whose expansions line up cell for cell (the `i`-th cell of every
//! member forms the seed-matched [`Group`] `i`), [`Column`]s that render
//! a cell's row, and named [`Invariant`]s over a group.
//! [`Acceptance::run`] executes every cell in one engine call (parallel,
//! cached, under `RPAV_JOBS` / `RPAV_CACHE` / `RPAV_REFERENCE_TICK`),
//! prints the table, evaluates every invariant on every group and checks
//! determinism.

use std::collections::BTreeSet;

use rpav_core::prelude::*;
use rpav_core::table;
use rpav_sim::SimTime;

use crate::{assert_same_results, master_seed, print_aggregates};

/// A table column over a cell's metrics.
pub type Column = table::Column<RunMetrics>;

/// An invariant's answer: `Err` says why the group fails it.
pub type Verdict = Result<(), String>;

/// A named predicate over one group.
pub type Invariant = (&'static str, fn(&Group) -> Verdict);

/// `invariants![f, g]`: each predicate under its own function name.
#[macro_export]
macro_rules! invariants {
    ($($f:ident),* $(,)?) => {
        vec![$((stringify!($f), $f as fn(&$crate::acceptance::Group) -> _)),*]
    };
}

/// `ensure!(cond, "why {x}")`: `Ok(())` if `cond` holds, else the reason.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if $cond { Ok(()) } else { Err(format!($($why)+)) }
    };
}

/// Cells an invariant compares: one seed-matched cell per member of a
/// section, or, for a pooled invariant, every cell of the section.
pub struct Group<'a> {
    /// `<section>/<environment>/<cc>/run<r>`, less any part the members
    /// do not share.
    pub label: String,
    /// `(member, cell, metrics)`, in member order.
    pub members: Vec<(&'static str, &'a Cell, &'a RunMetrics)>,
}

impl Group<'_> {
    /// The cell and metrics of member `name`; a missing member is an error.
    pub fn get(&self, name: &str) -> Result<(&Cell, &RunMetrics), String> {
        let found = self.members.iter().find(|(member, ..)| *member == name);
        found
            .map(|&(_, c, m)| (c, m))
            .ok_or(format!("no member {name:?}"))
    }

    /// The metrics of member `name`.
    pub fn metrics(&self, name: &str) -> Result<&RunMetrics, String> {
        Ok(self.get(name)?.1)
    }
}

/// Members that expand to the same number of cells, and what each group
/// of theirs must hold.
pub struct Section {
    pub name: &'static str,
    pub members: Vec<(&'static str, MatrixSpec)>,
    pub invariants: Vec<Invariant>,
    /// Invariants over every cell of the section at once.
    pub pooled: Vec<Invariant>,
}

impl Section {
    /// A section without pooled invariants.
    pub fn new(
        name: &'static str,
        members: Vec<(&'static str, MatrixSpec)>,
        invariants: Vec<Invariant>,
    ) -> Self {
        let pooled = Vec::new();
        Section {
            name,
            members,
            invariants,
            pooled,
        }
    }
}

/// Seconds from the last displayed frame (or the start) to the run's end.
fn frozen_secs(m: &RunMetrics) -> f64 {
    let last = m.frames.iter().rev().find(|f| f.displayed);
    let end = SimTime::ZERO + m.duration;
    end.saturating_since(last.map_or(SimTime::ZERO, |f| f.display_at))
        .as_secs_f64()
}

/// The `frozen_s` column.
pub const FROZEN: Column = ("frozen_s", |m| format!("{:.1}", frozen_secs(m)));

/// One acceptance suite.
pub struct Acceptance {
    /// First in every invariant failure.
    pub suite: &'static str,
    pub title: &'static str,
    /// The fixed conditions, printed under the banner.
    pub detail: String,
    pub columns: Vec<Column>,
    pub sections: Vec<Section>,
    /// The `(section, member)` cells the determinism check runs again.
    pub replay: (&'static str, &'static str),
}

/// A group's section and its `(member, cell index)`s.
type Slots = (usize, Vec<(&'static str, usize)>);

impl Acceptance {
    /// Run the suite; panics on the first invariant that fails.
    pub fn run(self) {
        let (cells, slots) = self.expand();
        let runs = cells
            .iter()
            .map(|c| c.config.run_index)
            .collect::<BTreeSet<_>>();
        let (runs, seed) = (runs.len(), master_seed());
        println!("=== {}\n    {runs} run(s)/cell, seed {seed:#x}", self.title);
        println!("    {}\n", self.detail);
        let result = CampaignEngine::new().run_cells(&cells);
        let groups: Vec<Group> = slots.iter().map(|at| self.group(at, &result)).collect();
        // Each row led by its group and member: the two label columns.
        let members = || {
            groups
                .iter()
                .flat_map(|g| g.members.iter().map(move |m| (g, m)))
        };
        let mut rows = table::rows(&self.columns, members().map(|(_, &(.., m))| m));
        let keys = members().map(|(g, &(member, ..))| [g.label.clone(), member.into()]);
        let header = ["group".into(), "cell".into()];
        for (row, keys) in rows.iter_mut().zip(std::iter::once(header).chain(keys)) {
            row.splice(0..0, keys);
        }
        for line in table::aligned(2, &rows) {
            println!("{line}");
        }
        print_aggregates(&result.report.aggregates);
        let check = |invariants: &[Invariant], group: &Group| {
            verdicts(self.suite, invariants, group).unwrap_or_else(|e| panic!("{e}"))
        };
        for ((s, _), group) in slots.iter().zip(&groups) {
            check(&self.sections[*s].invariants, group);
        }
        for (s, section) in self.sections.iter().enumerate() {
            let mine = slots.iter().zip(&groups).filter(|((at, _), _)| *at == s);
            let members = mine.flat_map(|(_, g)| g.members.clone()).collect();
            let label = format!("{}/all", section.name);
            check(&section.pooled, &Group { label, members });
        }
        self.assert_deterministic(&slots, &result);
        let (g, c) = (groups.len(), cells.len());
        println!("\nAll invariants hold over {g} groups ({c} cells).");
        println!("{}", result.report.summary());
    }

    /// Every section's members expanded into one renumbered cell list,
    /// and which cells form each group.
    fn expand(&self) -> (Vec<Cell>, Vec<Slots>) {
        let (mut cells, mut slots) = (Vec::<Cell>::new(), Vec::<Slots>::new());
        for (s, section) in self.sections.iter().enumerate() {
            let first = slots.len();
            for &(member, ref spec) in &section.members {
                let expanded = spec.expand();
                if slots.len() == first {
                    slots.resize_with(first + expanded.len(), || (s, Vec::new()));
                }
                let what = format!("{} / {} / {member}", self.suite, section.name);
                assert_eq!(
                    expanded.len(),
                    slots.len() - first,
                    "{what}: does not line up"
                );
                for (mut cell, (_, at)) in expanded.into_iter().zip(&mut slots[first..]) {
                    let seed = |c: &Cell| (c.config.seed, c.config.run_index);
                    let lead = at.first().map(|&(_, i)| seed(&cells[i]));
                    assert!(
                        lead.is_none_or(|l| l == seed(&cell)),
                        "{what}: not seed-matched"
                    );
                    cell.index = cells.len();
                    at.push((member, cell.index));
                    cells.push(cell);
                }
            }
        }
        (cells, slots)
    }

    /// The group's cells, labelled with its section and the environment,
    /// CC and run index its members share.
    fn group<'a>(&self, (s, at): &Slots, result: &'a MatrixResult) -> Group<'a> {
        let members = at.iter().map(|&(member, i)| {
            let outcome = &result.outcomes[i];
            (member, outcome.cell(), outcome.metrics().as_ref())
        });
        let members: Vec<_> = members.collect();
        let parts = |c: &Cell| {
            let (env, cc, run) = (c.config.environment, c.config.cc.name(), c.config.run_index);
            [format!("{env:?}"), cc.to_string(), format!("run{run}")]
        };
        let mut label = vec![self.sections[*s].name.to_string()];
        for (k, part) in parts(members[0].1).into_iter().enumerate() {
            if members.iter().all(|&(_, c, _)| parts(c)[k] == part) {
                label.push(part);
            }
        }
        let label = label.join("/");
        Group { label, members }
    }

    /// The one determinism check: the `replay` cells, executed again
    /// without the cache at `jobs = 1` and at `jobs = 8`, equal each other
    /// (per cell and in aggregates) and the suite's run, and the first
    /// replays directly — no engine, adaptive scheduler — to the same
    /// bytes.
    fn assert_deterministic(&self, slots: &[Slots], result: &MatrixResult) {
        let (section, member) = self.replay;
        let picked: Vec<&CellOutcome> = (slots.iter())
            .filter(|(s, _)| self.sections[*s].name == section)
            .flat_map(|(_, at)| at.iter().filter(|(m, _)| *m == member))
            .map(|&(_, i)| &result.outcomes[i])
            .collect();
        let suite = self.suite;
        assert!(!picked.is_empty(), "{suite}: no {section} / {member} cells");
        let suite_run: Vec<Vec<u8>> = picked.iter().map(|o| o.metrics().to_bytes()).collect();
        let mut cells: Vec<Cell> = picked.iter().map(|o| o.cell().clone()).collect();
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.index = i;
        }
        let engine = |jobs| CampaignEngine::new().with_cache_dir(None).with_jobs(jobs);
        let [serial, parallel] = [1, 8].map(|jobs| engine(jobs).run_cells(&cells));
        assert_same_results("jobs=1 vs jobs=8", &serial, &parallel);
        let again: Vec<Vec<u8>> = serial.metrics().map(RunMetrics::to_bytes).collect();
        assert!(
            again == suite_run,
            "{suite}: a cell diverged when run again"
        );
        let direct = cells[0].execute_with(false).to_bytes();
        assert!(
            direct == suite_run[0],
            "{suite}: diverged from direct execution"
        );
    }
}

/// The first invariant `group` fails, as `suite / invariant / group:
/// reason`.
fn verdicts(suite: &str, invariants: &[Invariant], group: &Group) -> Verdict {
    for (name, check) in invariants {
        check(group).map_err(|why| format!("{suite} / {name} / {}: {why}", group.label))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seed-matched cells, repair off and on, with synthetic metrics
    /// (no simulation): member `b` sent 7 NACKs.
    fn fixture() -> (Vec<Cell>, [RunMetrics; 2]) {
        let base = ExperimentConfig::builder().build();
        let cells = MatrixSpec::new(base).repairs([false, true]).expand();
        let mut metrics = [RunMetrics::default(), RunMetrics::default()];
        metrics[1].nacks_sent = 7;
        (cells, metrics)
    }

    fn group<'a>(cells: &'a [Cell], metrics: &'a [RunMetrics; 2]) -> Group<'a> {
        let members = vec![("a", &cells[0], &metrics[0]), ("b", &cells[1], &metrics[1])];
        Group {
            label: "sect/Rural/GCC/run0".into(),
            members,
        }
    }

    fn a_sends_as_many_nacks_as_b(g: &Group) -> Verdict {
        let (a, b) = (g.metrics("a")?.nacks_sent, g.metrics("b")?.nacks_sent);
        ensure!(a >= b, "{a} < {b}")
    }

    fn reads_a_member_nobody_has(g: &Group) -> Verdict {
        g.metrics("single").map(drop)
    }

    fn holds(_: &Group) -> Verdict {
        Ok(())
    }

    /// The first of `invariants` the fixture's group fails, in suite `demo`.
    fn check(invariants: Vec<Invariant>) -> Verdict {
        let (cells, metrics) = fixture();
        verdicts("demo", &invariants, &group(&cells, &metrics))
    }

    #[test]
    fn a_failing_predicate_names_suite_invariant_and_group() {
        assert_eq!(check(invariants![holds]), Ok(()));
        let failure = check(invariants![holds, a_sends_as_many_nacks_as_b]);
        let want = "demo / a_sends_as_many_nacks_as_b / sect/Rural/GCC/run0: 0 < 7";
        assert_eq!(failure, Err(want.into()));
    }

    #[test]
    fn a_missing_member_is_an_error_not_a_skip() {
        let failure = check(invariants![reads_a_member_nobody_has]);
        let want = "demo / reads_a_member_nobody_has / sect/Rural/GCC/run0: no member \"single\"";
        assert_eq!(failure, Err(want.into()));
    }
}
