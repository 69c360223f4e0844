//! The five workloads. Each module states why its workload exists and which
//! layers it is meant to load; `README.md` has the full tables.

pub mod extent_query;
pub mod mixed_oo7;
pub mod parts_fixpoint;
pub mod point_lookup;
pub mod stock_write;
