//! The correctness gate: every answer re-evaluated by the exact evaluator,
//! outcome hashes pinned, and byte identity with the other backend.

use crate::loadgen::Exchange;
use crate::stats::fnv64;
use crate::workloads::Workload;
use cdd_bench::workload::WorkloadEntry;
use cdd_core::eval::{evaluator_for, SequenceEvaluator};
use cdd_core::{Instance, JobSequence};
use cdd_gpu::{run_gpu_solve, Backend, GpuSolveSpec};
use cdd_instances::InstanceId;
use std::collections::HashMap;

/// The seed whose outcome hashes are pinned.
pub const DEFAULT_SEED: u64 = 2016;

/// Requests (stream positions `0..PINNED_PREFIX`) the pinned hash covers.
pub(crate) const PINNED_PREFIX: usize = 64;

/// Requests re-solved on the other backend after every run.
const CROSS_BACKEND_PREFIX: usize = 16;

/// Outcome hash of the first [`PINNED_PREFIX`] requests of each workload at
/// [`DEFAULT_SEED`] and full scale (see [`outcome_hash`]).
const PINNED: [(&str, u64); 4] = [
    ("small-open", 0x7fa8_dead_13ef_20ea),
    ("small-closed", 0xa20a_0848_1ef8_96a5),
    ("large-paper", 0x60ac_bbe9_c031_c8bc),
    // The small-closed traffic: both backends must give the same bytes.
    ("sim-referee", 0xa20a_0848_1ef8_96a5),
];

type Evaluator = Box<dyn SequenceEvaluator + Send + Sync>;

/// Instances and their exact evaluators, built once per distinct id.
#[derive(Default)]
pub(crate) struct Instances {
    map: HashMap<(usize, u32, Option<u64>), (Instance, Evaluator)>,
}

impl Instances {
    fn get(&mut self, id: &InstanceId) -> &(Instance, Evaluator) {
        self.map
            .entry((id.n, id.k, id.h.map(f64::to_bits)))
            .or_insert_with(|| {
                let inst = id.instantiate();
                let eval = evaluator_for(&inst);
                (inst, eval)
            })
    }

    /// The instance `id` names.
    pub(crate) fn instance(&mut self, id: &InstanceId) -> &Instance {
        &self.get(id).0
    }
}

/// Re-evaluate every answered `(objective, sequence)`: the sequence must be
/// a permutation of the instance's jobs and score exactly the objective.
pub(crate) fn check_answers(
    entries: &[WorkloadEntry],
    exchanges: &[Exchange],
    instances: &mut Instances,
) -> Vec<String> {
    let mut failures = Vec::new();
    for x in exchanges {
        let Some(r) = &x.response else { continue };
        let (inst, eval) = instances.get(&entries[x.idx].id);
        let valid = x.sequence.len() == inst.n()
            && JobSequence::from_vec(x.sequence.clone()).is_ok_and(|s| s.is_valid_permutation());
        if !valid {
            failures.push(format!(
                "request {}: the answer is not a permutation of the jobs",
                x.idx
            ));
        } else if eval.evaluate(&x.sequence) != r.objective {
            failures.push(format!(
                "request {}: objective {} but the sequence scores {}",
                x.idx,
                r.objective,
                eval.evaluate(&x.sequence)
            ));
        }
    }
    failures
}

/// One outcome row: the request line, the objective and the sequence.
#[must_use]
fn outcome_row(e: &WorkloadEntry, objective: i64, sequence: &[u32]) -> String {
    let seq: Vec<String> = sequence.iter().map(u32::to_string).collect();
    format!("{}|{objective}|{}", e.to_line(), seq.join(","))
}

/// FNV-1a hash of the sorted outcome rows of stream positions `0..prefix`.
/// Fails unless every one of them was answered.
pub(crate) fn outcome_hash(
    entries: &[WorkloadEntry],
    exchanges: &[Exchange],
    prefix: usize,
) -> Result<u64, String> {
    let mut rows: Vec<String> = exchanges
        .iter()
        .filter(|x| x.idx < prefix)
        .filter_map(|x| {
            x.response
                .as_ref()
                .map(|r| outcome_row(&entries[x.idx], r.objective, &x.sequence))
        })
        .collect();
    if rows.len() != prefix {
        return Err(format!(
            "only {} of the first {prefix} requests were answered",
            rows.len()
        ));
    }
    rows.sort();
    Ok(fnv64(rows.join("\n").as_bytes()))
}

/// Compare the pinned hash of `workload` (only meaningful at the default
/// seed and full scale).
pub(crate) fn check_pin(workload: &str, hash: u64) -> Option<String> {
    let pinned = PINNED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, h)| *h)?;
    (pinned != hash).then(|| {
        format!("outcome hash {hash:#018x} differs from the pinned {pinned:#018x} for {workload}")
    })
}

/// Re-solve the first [`CROSS_BACKEND_PREFIX`] requests on the backend the
/// workload does not use; objectives and sequences must match byte for
/// byte.
pub(crate) fn cross_backend(
    w: &Workload,
    entries: &[WorkloadEntry],
    exchanges: &[Exchange],
    instances: &mut Instances,
) -> Vec<String> {
    let other = match w.backend {
        Backend::Native => Backend::Sim,
        Backend::Sim => Backend::Native,
    };
    let spec = GpuSolveSpec {
        backend: other,
        ..w.gpu_spec()
    };
    let todo: Vec<(&Exchange, Instance)> = exchanges
        .iter()
        .filter(|x| x.idx < CROSS_BACKEND_PREFIX && x.response.is_some())
        .map(|x| (x, instances.instance(&entries[x.idx].id).clone()))
        .collect();
    let check = |(x, inst): &(&Exchange, Instance)| -> Option<String> {
        let (e, r) = (
            &entries[x.idx],
            x.response.as_ref().expect("filtered on answered"),
        );
        match run_gpu_solve(inst, e.algorithm, e.iterations, e.seed, &spec) {
            Ok(g) if g.objective == r.objective && g.best.as_slice() == x.sequence.as_slice() => {
                None
            }
            Ok(g) => Some(format!(
                "request {}: {other} re-solve gives objective {} where the fleet answered {}",
                x.idx, g.objective, r.objective
            )),
            Err(err) => Some(format!("request {}: {other} re-solve failed: {err}", x.idx)),
        }
    };
    // Two threads: the check runs after the measured phase, and the
    // simulator re-solves of large instances take seconds each.
    let mut failures: Vec<String> = std::thread::scope(|s| {
        let (todo, check) = (&todo, &check);
        let halves: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    todo.iter()
                        .skip(t)
                        .step_by(2)
                        .filter_map(check)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("re-solve thread panicked"))
            .collect()
    });
    let checked = todo.len();
    if checked < CROSS_BACKEND_PREFIX.min(entries.len()) {
        failures.push(format!(
            "only {checked} of the first {CROSS_BACKEND_PREFIX} requests were answered"
        ));
    }
    failures
}
