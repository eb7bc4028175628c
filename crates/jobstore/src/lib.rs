//! The Job Store and Job Service (paper §III-A, Table I).
//!
//! The Job Management layer maintains two tables:
//!
//! * the **Expected Job Table** — four layered configuration levels per job
//!   (Base, Provisioner, Scaler, Oncall), each with its own version counter
//!   so concurrent writers get read-modify-write consistency;
//! * the **Running Job Table** — the actual settings of the currently
//!   running jobs, committed only by the State Syncer after an execution
//!   plan succeeds.
//!
//! Durability comes from an append-only write-ahead log: every mutation is
//! logged before it is applied, and [`store::JobStore::recover`] rebuilds
//! the exact tables from the log. The [`service::JobService`] wraps the
//! store with the retrying read-modify-write loop components actually use.
//!
//! Every row change also feeds the job to the store's named readers
//! ([`store::StoreFeed`]): each reader drains the jobs changed since it
//! last looked instead of rescanning both tables.

pub mod service;
pub mod store;
pub mod wal;

pub use service::JobService;
pub use store::{JobStore, JobStoreError, StoreReader, WalSalvage};
pub use wal::{FileWal, MemWal, WalError, WalStorage};
