//! Workload files for the solver service (`cdd-serve`): a deterministic
//! generator of mixed CDD/UCDDCP request streams and a line-oriented text
//! format to persist them.
//!
//! Each line describes one [`SolveRequest`] by *instance id* rather than by
//! raw job data — the benchmark generators are deterministic, so the id
//! (plus algorithm, budget and seed) reproduces the exact request anywhere:
//!
//! ```text
//! # kind n k h algorithm iterations seed tenant priority
//! cdd 10 1 0.6 sa 150 11491960066 t0 normal
//! ucddcp 20 3 - dpso 150 99220417 t2 interactive
//! ```
//!
//! The trailing `tenant priority` columns are the service-identity half of
//! the schema (who asked, how urgently); the file-replay path (`cdd-serve`)
//! and the network path (`cdd-node`/`cdd-router`) both parse this one
//! format. Legacy 7-field lines still load — they default to tenant
//! `default` at `normal` priority.
//!
//! [`generate_mixed`] deliberately re-emits earlier entries' *work* (about
//! a quarter of the stream) under freshly drawn tenant/priority columns, so
//! a replay exercises the service's solution cache — including the
//! cross-tenant case: a duplicate request is always served from the cache
//! layer (direct hit or coalesced onto the identical in-flight request)
//! because tenant and priority are excluded from the content key.

use crate::campaign::instance_seed;
use cdd_core::{Algorithm, Priority, SolveRequest};
use cdd_instances::{InstanceId, PAPER_H_VALUES};
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// One workload line: which request to submit.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// Benchmark instance to solve (CDD when `id.h` is set, else UCDDCP).
    pub id: InstanceId,
    /// Metaheuristic to run.
    pub algorithm: Algorithm,
    /// Generation budget.
    pub iterations: u64,
    /// Master seed of the solve.
    pub seed: u64,
    /// Owning tenant (rate-limit/accounting identity on the network path).
    pub tenant: String,
    /// Service priority class.
    pub priority: Priority,
}

impl WorkloadEntry {
    /// Materialize the entry into a service request (no deadline).
    pub fn to_request(&self) -> SolveRequest {
        SolveRequest {
            tenant: self.tenant.clone(),
            priority: self.priority,
            ..SolveRequest::new(self.id.instantiate(), self.algorithm, self.iterations, self.seed)
        }
    }

    /// Serialize as one workload-file line.
    pub fn to_line(&self) -> String {
        let (kind, h) = match self.id.h {
            Some(h) => ("cdd", format!("{h}")),
            None => ("ucddcp", "-".to_string()),
        };
        format!(
            "{kind} {} {} {h} {} {} {} {} {}",
            self.id.n, self.id.k, self.algorithm, self.iterations, self.seed, self.tenant,
            self.priority
        )
    }

    /// Parse one workload-file line (inverse of [`Self::to_line`]). Accepts
    /// both the 9-field schema and the pre-tenant 7-field one (tenant
    /// `default`, `normal` priority).
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 7 && fields.len() != 9 {
            return Err(format!("expected 7 or 9 fields, got {}: {line:?}", fields.len()));
        }
        let n: usize = fields[1].parse().map_err(|_| format!("bad n {:?}", fields[1]))?;
        let k: u32 = fields[2].parse().map_err(|_| format!("bad k {:?}", fields[2]))?;
        let id = match fields[0] {
            "cdd" => {
                let h: f64 = fields[3].parse().map_err(|_| format!("bad h {:?}", fields[3]))?;
                InstanceId::cdd(n, k, h)
            }
            "ucddcp" => InstanceId::ucddcp(n, k),
            other => return Err(format!("unknown problem kind {other:?}")),
        };
        let (tenant, priority) = if fields.len() == 9 {
            (fields[7].to_string(), fields[8].parse::<Priority>()?)
        } else {
            ("default".to_string(), Priority::Normal)
        };
        Ok(WorkloadEntry {
            id,
            algorithm: fields[4].parse()?,
            iterations: fields[5].parse().map_err(|_| format!("bad iterations {:?}", fields[5]))?,
            seed: fields[6].parse().map_err(|_| format!("bad seed {:?}", fields[6]))?,
            tenant,
            priority,
        })
    }
}

/// SplitMix64 step — the deterministic draw stream of the generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Draw a `(tenant, priority)` identity: tenants `t0 .. t{tenants-1}`
/// uniformly, priorities in a 1/4 batch : 1/2 normal : 1/4 interactive mix.
fn draw_identity(state: &mut u64, tenants: usize) -> (String, Priority) {
    let tenant = format!("t{}", (splitmix64(state) as usize) % tenants.max(1));
    let priority = match splitmix64(state) % 4 {
        0 => Priority::Batch,
        3 => Priority::Interactive,
        _ => Priority::Normal,
    };
    (tenant, priority)
}

/// Generate a mixed CDD/UCDDCP workload of `count` requests, deterministic
/// in `seed`, spread over [`DEFAULT_TENANTS`] tenants. Roughly every fourth
/// request (from the fifth on) duplicates a uniformly chosen earlier
/// entry's *work* under a freshly drawn tenant/priority, guaranteeing the
/// stream contains cacheable repeats — including cross-tenant ones.
pub fn generate_mixed(count: usize, seed: u64, iterations: u64, sizes: &[usize]) -> Vec<WorkloadEntry> {
    generate_mixed_tenants(count, seed, iterations, sizes, DEFAULT_TENANTS)
}

/// Tenant-pool size used by [`generate_mixed`].
pub const DEFAULT_TENANTS: usize = 4;

/// [`generate_mixed`] with an explicit tenant-pool size.
pub fn generate_mixed_tenants(
    count: usize,
    seed: u64,
    iterations: u64,
    sizes: &[usize],
    tenants: usize,
) -> Vec<WorkloadEntry> {
    assert!(!sizes.is_empty(), "generate_mixed needs at least one size");
    let mut state = seed ^ 0x57D0_10AD;
    let mut entries: Vec<WorkloadEntry> = Vec::with_capacity(count);
    for i in 0..count {
        if i >= 4 && i % 4 == 3 {
            let j = (splitmix64(&mut state) as usize) % i;
            let mut dup = entries[j].clone();
            // Same work, fresh identity: the duplicate must collide on
            // content key even when another tenant submits it.
            let (tenant, priority) = draw_identity(&mut state, tenants);
            dup.tenant = tenant;
            dup.priority = priority;
            entries.push(dup);
            continue;
        }
        let n = sizes[(splitmix64(&mut state) as usize) % sizes.len()];
        let k = 1 + (splitmix64(&mut state) % 10) as u32;
        let id = if splitmix64(&mut state).is_multiple_of(2) {
            let h = PAPER_H_VALUES[(splitmix64(&mut state) as usize) % PAPER_H_VALUES.len()];
            InstanceId::cdd(n, k, h)
        } else {
            InstanceId::ucddcp(n, k)
        };
        let algorithm =
            if splitmix64(&mut state).is_multiple_of(2) { Algorithm::Sa } else { Algorithm::Dpso };
        let request_seed = instance_seed(seed, &id) ^ splitmix64(&mut state);
        let (tenant, priority) = draw_identity(&mut state, tenants);
        entries.push(WorkloadEntry {
            id,
            algorithm,
            iterations,
            seed: request_seed,
            tenant,
            priority,
        });
    }
    entries
}

/// [`generate_mixed_tenants`] with the duplicate branch (and any residual
/// content-key collisions) filtered out: every entry is distinct work.
/// Trace byte-stability across runs needs this — whether a repeated key is
/// served from cache or coalesced depends on arrival timing, which would
/// change the per-request flight records between otherwise identical runs.
pub fn generate_unique_tenants(
    count: usize,
    seed: u64,
    iterations: u64,
    sizes: &[usize],
    tenants: usize,
) -> Vec<WorkloadEntry> {
    let mut batch = count.max(1);
    loop {
        // ~25% of the mixed stream is duplicates, so one doubling almost
        // always suffices; the loop keeps the function total regardless.
        batch *= 2;
        let mut seen = std::collections::BTreeSet::new();
        let mut entries = Vec::with_capacity(count);
        for e in generate_mixed_tenants(batch, seed, iterations, sizes, tenants) {
            if seen.insert(e.to_request().content_key()) {
                entries.push(e);
                if entries.len() == count {
                    return entries;
                }
            }
        }
    }
}

/// Write a workload file (one line per entry, `#` header comment).
pub fn save(path: &Path, entries: &[WorkloadEntry]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("# kind n k h algorithm iterations seed tenant priority\n");
    for e in entries {
        out.push_str(&e.to_line());
        out.push('\n');
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Read a workload file (blank lines and `#` comments are skipped).
pub fn load(path: &Path) -> std::io::Result<Vec<WorkloadEntry>> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let entry = WorkloadEntry::parse_line(line).map_err(|e| {
            Error::new(ErrorKind::InvalidData, format!("{}:{}: {e}", path.display(), lineno + 1))
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip_through_the_text_format() {
        let entries = generate_mixed(16, 7, 150, &[10, 20]);
        for e in &entries {
            assert_eq!(WorkloadEntry::parse_line(&e.to_line()).unwrap(), *e);
        }
        assert!(WorkloadEntry::parse_line("cdd 10 1 0.6 sa 100").is_err(), "field count");
        assert!(WorkloadEntry::parse_line("tsp 10 1 - sa 100 1 t0 normal").is_err(), "unknown kind");
        assert!(
            WorkloadEntry::parse_line("cdd 10 1 0.6 sa 100 1 t0 urgent").is_err(),
            "unknown priority"
        );
    }

    #[test]
    fn legacy_seven_field_lines_default_tenant_and_priority() {
        let e = WorkloadEntry::parse_line("cdd 10 1 0.6 sa 150 11491960066").unwrap();
        assert_eq!(e.tenant, "default");
        assert_eq!(e.priority, Priority::Normal);
        let req = e.to_request();
        assert_eq!(req.tenant, "default");
        assert_eq!(req.priority, Priority::Normal);
    }

    #[test]
    fn generation_is_deterministic_and_contains_duplicates() {
        let a = generate_mixed(32, 42, 150, &[10, 20]);
        let b = generate_mixed(32, 42, 150, &[10, 20]);
        assert_eq!(a, b);
        let work = |e: &WorkloadEntry| (e.to_line().split_whitespace().take(7).collect::<Vec<_>>()).join(" ");
        let distinct: std::collections::BTreeSet<String> = a.iter().map(work).collect();
        assert!(distinct.len() < a.len(), "the stream must contain repeated work");
        let kinds: std::collections::BTreeSet<bool> =
            a.iter().map(|e| e.id.h.is_some()).collect();
        assert_eq!(kinds.len(), 2, "both problem kinds appear");
        assert_ne!(generate_mixed(32, 43, 150, &[10, 20]), a, "seed matters");
        let tenants: std::collections::BTreeSet<&str> =
            a.iter().map(|e| e.tenant.as_str()).collect();
        assert!(tenants.len() > 1, "the stream spreads over multiple tenants: {tenants:?}");
        let priorities: std::collections::BTreeSet<Priority> =
            a.iter().map(|e| e.priority).collect();
        assert!(priorities.len() > 1, "the stream mixes priority classes");
        let pool = generate_mixed_tenants(32, 42, 150, &[10, 20], 1);
        assert!(pool.iter().all(|e| e.tenant == "t0"), "tenant pool size is honoured");
    }

    #[test]
    fn duplicates_cross_tenants_but_share_work() {
        // At least one duplicated work-item must appear under two different
        // tenant/priority identities — that is what lets a fleet test
        // assert a cross-tenant cache hit.
        let a = generate_mixed(64, 42, 150, &[10]);
        let mut by_key: std::collections::BTreeMap<u64, std::collections::BTreeSet<String>> =
            Default::default();
        for e in &a {
            by_key
                .entry(e.to_request().content_key())
                .or_default()
                .insert(format!("{}/{}", e.tenant, e.priority));
        }
        assert!(
            by_key.values().any(|idents| idents.len() > 1),
            "some duplicated work must carry a different identity"
        );
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join(format!("cdd-workload-{}", std::process::id()));
        let path = dir.join("w.txt");
        let entries = generate_mixed(12, 3, 100, &[10]);
        save(&path, &entries).unwrap();
        assert_eq!(load(&path).unwrap(), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_entries_share_a_content_key() {
        let entries = generate_mixed(32, 5, 120, &[10]);
        let keys: Vec<u64> = entries.iter().map(|e| e.to_request().content_key()).collect();
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert!(distinct.len() < keys.len(), "verbatim repeats must collide on content key");
    }
}
