//! `ode-e2e`: the seeded end-to-end benchmark of the Ode reproduction.
//!
//! One binary generates five workloads over the paper's own example schemas
//! (stock items §2/§5/§6, person/student/faculty §3.1.1, part–subpart §3.2,
//! employee–department §3.1), drives them against a real `ode_server::Server`
//! over loopback `ode-wire` (one workload uses the embedded library API),
//! checks every answer against an in-memory model, and prints every metric
//! by name with its unit. Every layer is measured from outside: by timing
//! calls into public functions and by name-keyed deltas of public counters.
//! `README.md` has the metric and workload tables and how to run it.

pub mod check;
pub mod counters;
pub mod driver;
pub mod host;
pub mod ladder;
pub mod probes;
pub mod recorder;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod workloads;
