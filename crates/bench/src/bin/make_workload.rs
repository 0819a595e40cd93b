//! Generate a mixed CDD/UCDDCP request stream for the solver service
//! (`cdd-serve --workload …`).
//!
//! ```text
//! cargo run --release -p cdd-bench --bin make_workload -- \
//!     [--requests 64] [--seed 2016] [--iterations 150] [--sizes 10,20] \
//!     [--tenants 4] [--unique] [--out results/workload.txt]
//! ```
//!
//! About a quarter of the stream repeats earlier requests' work (under a
//! freshly drawn tenant/priority identity), so a replay through `cdd-serve`
//! or the `cdd-node`/`cdd-router` socket path exercises the solution cache
//! — including cross-tenant deduplication. `--unique` disables the repeats
//! (every entry is distinct work), which a byte-stable fleet trace needs:
//! cache-hit vs coalesced classification of a repeated key depends on
//! arrival timing, so duplicate work would perturb flight records between
//! otherwise identical runs.

use cdd_bench::workload::{generate_mixed_tenants, generate_unique_tenants, save, DEFAULT_TENANTS};
use cdd_bench::{results_dir, Args};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let requests = args.get_or("requests", 64usize);
    let seed = args.get_or("seed", 2016u64);
    let iterations = args.get_or("iterations", 150u64);
    let sizes = args.get_list_or("sizes", &[10usize, 20]);
    let tenants = args.get_or("tenants", DEFAULT_TENANTS);
    let out = args
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("workload.txt"));

    let entries = if args.flag("unique") {
        generate_unique_tenants(requests, seed, iterations, &sizes, tenants)
    } else {
        generate_mixed_tenants(requests, seed, iterations, &sizes, tenants)
    };
    save(&out, &entries).expect("workload file writable");

    let distinct: BTreeSet<u64> = entries.iter().map(|e| e.to_request().content_key()).collect();
    let mut per_tenant: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &entries {
        *per_tenant.entry(e.tenant.as_str()).or_insert(0) += 1;
    }
    println!(
        "wrote {} requests ({} distinct work items, {} duplicates) to {}",
        entries.len(),
        distinct.len(),
        entries.len() - distinct.len(),
        out.display()
    );
    let breakdown: Vec<String> =
        per_tenant.iter().map(|(t, c)| format!("{t}: {c}")).collect();
    println!("tenants: {}", breakdown.join(", "));
}
