//! The four workloads, one per entry point of the stack.

pub mod churn;
pub mod postmark_tcp;
pub mod read_hot;
pub mod rig;
pub mod write_sync;
