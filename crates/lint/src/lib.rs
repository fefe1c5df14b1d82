//! mtmpi-lint: the workspace's concurrency-contract static analysis.
//!
//! The remedies this repo reproduces — priority arbitration (paper
//! §5), VCI sharding, the lock-free wildcard claim token — stay correct
//! through hand-maintained invariants: Release/Acquire publication on
//! hand-off words, the no-two-shard-locks rule, and typed error paths.
//! This crate makes those invariants machine-checked at source level,
//! in the spirit of lockdep: the checker and the code it disciplines
//! live (and evolve) together. The fixed-seed replay contract's bans
//! (wall clock, environment, hash containers) are clippy's, from the
//! root `clippy.toml`.
//!
//! # Architecture
//!
//! No `syn`: the build environment is offline and the workspace vendors
//! no external code (see `crates/shims/README.md`), so the engine
//! carries its own token-level front end ([`lexer`]) and a light
//! structural layer ([`source`]: fn items, `#[cfg(test)]` regions,
//! allow comments). Rules ([`rules`]) match token patterns — exact
//! about comments, strings, wrapped method chains, and `compare_
//! exchange` success-vs-failure orderings, everything the old
//! line-regex pass in xtask was fragile about.
//!
//! # Workflow
//!
//! * `cargo run -p xtask -- lint` — full-workspace run, exit 1 on any
//!   finding.
//! * A deliberate site is accepted with `// lint: allow(L002) <why>` on
//!   the same or the preceding line — the one way to accept a finding.
//!
//! Rule catalogue: see [`rules`] and DESIGN.md §13. Each rule
//! has a negative fixture under `crates/lint/fixtures/` proving it
//! fires; `tests/rules.rs` pins the exact sites.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::Diagnostic;
pub use engine::{run, Report};
pub use source::SourceFile;
