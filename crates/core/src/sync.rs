//! The workspace's single doorway to synchronisation primitives.
//!
//! Everything concurrent built on `dlb-core` — today the `dlb-serve`
//! batch scheduler's ticket counter, per-tenant locks and scoped
//! workers — imports from this module instead of `std::sync` /
//! `std::thread` directly (`tools/dlb-tidy` enforces this inside
//! `dlb-core`). Under a normal build the module is nothing but
//! `pub use std::…` re-exports, so it costs exactly zero: same types,
//! same codegen, no wrapper in sight.
//!
//! Compiled with `RUSTFLAGS="--cfg dlb_model"` the same names resolve
//! to the vendored `loom` shim instead, whose primitives report every
//! operation to a cooperative scheduler. The `dlb-model` crate then
//! drives the *real* scheduler code through every interleaving of a
//! small configuration — no test double of the protocol, the protocol
//! itself. The cfg is a `RUSTFLAGS` switch rather than a cargo feature
//! on purpose: feature unification would otherwise swap the primitives
//! under every crate in the workspace the moment one test enabled it.
//!
//! The shim degrades to plain std behaviour when its primitives are
//! created outside a model execution, so a `--cfg dlb_model` build of
//! the whole workspace still runs normally; only code called from
//! inside `loom::model(|| …)` is scheduled.

#[cfg(not(dlb_model))]
pub use std::sync::Mutex;

#[cfg(dlb_model)]
pub use loom::sync::Mutex;

/// Atomics: `std::sync::atomic` or the model-checked shim.
pub mod atomic {
    #[cfg(not(dlb_model))]
    pub use std::sync::atomic::{AtomicUsize, Ordering};

    #[cfg(dlb_model)]
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
}

/// Scoped threads: `std::thread::scope` or the model-checked shim.
pub mod thread {
    #[cfg(not(dlb_model))]
    pub use std::thread::scope;

    #[cfg(dlb_model)]
    pub use loom::thread::scope;
}
