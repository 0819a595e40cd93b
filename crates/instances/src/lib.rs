//! # cdd-instances
//!
//! Benchmark instances for the CDD and UCDDCP problems.
//!
//! The paper evaluates on the **OR-library** common-due-date benchmarks of
//! Biskup & Feldmann ("Benchmarks for scheduling on a single machine against
//! restrictive and unrestrictive common due dates") — job sizes
//! `n ∈ {10, 20, 50, 100, 200, 500, 1000}`, ten instances per size, four
//! restrictive factors `h ∈ {0.2, 0.4, 0.6, 0.8}` (so "40 different
//! instances for each job size"), with integer data
//! `Pᵢ ~ U[1,20]`, `αᵢ ~ U[1,10]`, `βᵢ ~ U[1,15]` and due date
//! `d = ⌊h · Σ Pᵢ⌋`. The UCDDCP instances of Awasthi et al. \[8\] derive from
//! the same data with compression bounds and penalties added.
//!
//! **Substitution note (see DESIGN.md):** the original `sch*.dat` files are
//! not redistributable/downloadable in this offline environment, so
//! [`biskup_feldmann`] *re-generates* instances with the published
//! distributions, deterministically from `(n, k)`. The [`orlib`] module
//! reads and writes the OR-library text format, so the authentic files can
//! be dropped in transparently if available.

#![forbid(unsafe_code)]

pub mod best_known;
pub mod biskup_feldmann;
pub mod catalog;
pub mod orlib;
pub mod ucddcp_gen;

pub use best_known::BestKnown;
pub use biskup_feldmann::{cdd_instance, raw_job_data, RawJobData};
pub use catalog::{InstanceId, Suite, PAPER_H_VALUES, PAPER_SIZES};
pub use ucddcp_gen::ucddcp_instance;
