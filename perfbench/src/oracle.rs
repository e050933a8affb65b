//! Output checks computed apart from the program.
//!
//! Each oracle derives the expected answer from the workload's inputs
//! (tapes, initial memory, group layout), never from a stored copy of an
//! earlier run's output.

use retcon_isa::Addr;
use retcon_sim::SimReport;
use retcon_workloads::{scaling_xl_group_total, Alloc, WorkloadSpec, SCALING_XL_GROUP_CORES};
use std::collections::BTreeMap;

/// References a `python` transaction INCREFs (and, separately, DECREFs):
/// each transaction consumes `2 * PYTHON_TOUCHES` tape entries, the
/// first half INCREF'd and the second half DECREF'd.
pub const PYTHON_TOUCHES: usize = 3;

/// Transactions the `python` workload runs in total (its fixed work).
pub const PYTHON_TRANSACTIONS: u64 = 4096;

/// The expected final refcount of every object of a `python` spec: its
/// initial value plus the INCREFs minus the DECREFs its tapes name.
pub fn refcount_oracle(spec: &WorkloadSpec) -> Result<BTreeMap<Addr, u64>, String> {
    let mut rc: BTreeMap<Addr, i128> = spec.init.iter().map(|&(a, v)| (a, i128::from(v))).collect();
    for (core, tape) in spec.tapes.iter().enumerate() {
        if tape.len() % (2 * PYTHON_TOUCHES) != 0 {
            return Err(format!(
                "core {core}: tape length {} is not whole transactions",
                tape.len()
            ));
        }
        for tx in tape.chunks(2 * PYTHON_TOUCHES) {
            for (i, &addr) in tx.iter().enumerate() {
                let count = rc
                    .get_mut(&Addr(addr))
                    .ok_or_else(|| format!("core {core}: tape names {addr}, not an object"))?;
                *count += if i < PYTHON_TOUCHES { 1 } else { -1 };
            }
        }
    }
    rc.into_iter()
        .map(|(a, v)| {
            u64::try_from(v)
                .map(|v| (a, v))
                .map_err(|_| format!("object {} would end below zero", a.0))
        })
        .collect()
}

/// Transactions a `python` spec's tapes describe.
pub fn tape_transactions(spec: &WorkloadSpec) -> u64 {
    spec.tapes
        .iter()
        .map(|t| (t.len() / (2 * PYTHON_TOUCHES)) as u64)
        .sum()
}

/// The address of `python`'s shared free-list pointer: the first word
/// the workload allocates.
pub fn python_freelist() -> Addr {
    Alloc::new().alloc_words(1)
}

/// Checks a finished unoptimized `python` run: every refcount, the
/// free-list pointer (bumped once per transaction) and the commit count.
/// Returns one message per mismatch.
pub fn check_python(
    spec: &WorkloadSpec,
    report: &SimReport,
    read: impl Fn(Addr) -> u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let txs = tape_transactions(spec);
    if txs != PYTHON_TRANSACTIONS {
        problems.push(format!(
            "tapes describe {txs} transactions, not {PYTHON_TRANSACTIONS}"
        ));
    }
    match refcount_oracle(spec) {
        Ok(expected) => {
            for (addr, want) in expected {
                let got = read(addr);
                if got != want {
                    problems.push(format!("refcount at {}: {got}, expected {want}", addr.0));
                }
            }
        }
        Err(e) => problems.push(e),
    }
    let freelist = read(python_freelist());
    if freelist != txs {
        problems.push(format!("free-list pointer {freelist}, expected {txs}"));
    }
    if report.protocol.commits != txs {
        problems.push(format!(
            "{}: {} commits, expected {txs}",
            report.protocol_name, report.protocol.commits
        ));
    }
    problems
}

/// Group counters of `scaling_xl` at `num_cores`, with the total each
/// must reach: the workload allocates one block per group of
/// [`SCALING_XL_GROUP_CORES`] cores, in group order.
pub fn xl_group_oracle(num_cores: usize) -> Vec<(Addr, u64)> {
    let mut alloc = Alloc::new();
    (0..num_cores.div_ceil(SCALING_XL_GROUP_CORES))
        .map(|g| (alloc.alloc_blocks(1), scaling_xl_group_total(num_cores, g)))
        .collect()
}

/// Checks every `scaling_xl` group counter against its published total.
pub fn check_xl_groups(num_cores: usize, read: impl Fn(Addr) -> u64) -> Vec<String> {
    xl_group_oracle(num_cores)
        .into_iter()
        .enumerate()
        .filter_map(|(g, (addr, want))| {
            let got = read(addr);
            (got != want).then(|| format!("group {g} counter {got}, expected {want}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon_workloads::{machine_for, machine_for_sized, System, Workload};

    /// Two cores, objects at words 8 and 16, one transaction per core.
    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            programs: Vec::new(),
            tapes: vec![vec![8, 8, 16, 16, 16, 8], vec![16, 16, 16, 8, 8, 8]],
            init: vec![(Addr(8), 10), (Addr(16), 20)],
        }
    }

    #[test]
    fn refcount_oracle_counts_increfs_and_decrefs_from_the_tapes() {
        let spec = tiny_spec();
        let rc = refcount_oracle(&spec).unwrap();
        // Object 8: +2 -1 (core 0), -3 (core 1). Object 16: +1 -2, +3.
        assert_eq!(rc[&Addr(8)], 10 + 2 - 1 - 3);
        assert_eq!(rc[&Addr(16)], 20 + 1 - 2 + 3);
        assert_eq!(tape_transactions(&spec), 2);
    }

    #[test]
    fn refcount_oracle_rejects_partial_transactions_and_unknown_objects() {
        let mut spec = tiny_spec();
        spec.tapes[0].pop();
        assert!(refcount_oracle(&spec).is_err());
        let mut spec = tiny_spec();
        spec.tapes[1][0] = 24;
        assert!(refcount_oracle(&spec).is_err());
    }

    #[test]
    fn xl_group_oracle_covers_partial_groups() {
        let groups = xl_group_oracle(12);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, Addr(0));
        assert_eq!(groups[1].0, Addr(8));
        assert_eq!(groups[0].1, scaling_xl_group_total(12, 0));
        assert_eq!(
            groups[1].1,
            groups[0].1 / 2,
            "4 of 8 cores in the last group"
        );
    }

    #[test]
    fn python_check_holds_on_a_real_run_and_catches_a_wrong_count() {
        let python = Workload::parse("python").unwrap();
        let spec = python.build(4, 3);
        let mut machine = machine_for(
            &spec,
            System::Retcon.protocol(4),
            retcon_sim::SimConfig::with_cores(4),
        );
        let report = machine.run().unwrap();
        let read = |m: &retcon_sim::Machine, a: Addr| m.mem().read_word(a);
        assert_eq!(
            check_python(&spec, &report, |a| read(&machine, a)),
            Vec::<String>::new()
        );

        let victim = spec.init[3].0;
        let wrong = read(&machine, victim) + 1;
        machine.mem_mut().write_word(victim, wrong);
        assert_eq!(check_python(&spec, &report, |a| read(&machine, a)).len(), 1);

        let mut short = report.clone();
        short.protocol.commits -= 1;
        assert!(!check_python(&spec, &short, |a| machine.mem().read_word(a)).is_empty());
    }

    #[test]
    fn xl_check_holds_on_a_real_run_and_catches_a_wrong_counter() {
        let cores = 20;
        let spec = Workload::ScalingXl.build(cores, 0);
        let mut machine = machine_for_sized::<1>(
            &spec,
            System::Eager.protocol(cores),
            retcon_sim::SimConfig::with_cores(cores),
        );
        machine.run().unwrap();
        assert!(check_xl_groups(cores, |a| machine.mem().read_word(a)).is_empty());
        let (addr, total) = xl_group_oracle(cores)[2];
        machine.mem_mut().write_word(addr, total - 2);
        assert_eq!(
            check_xl_groups(cores, |a| machine.mem().read_word(a)).len(),
            1
        );
    }
}
