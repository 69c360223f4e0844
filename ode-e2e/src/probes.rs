//! What a statement's time is made of further down, each layer timed from
//! outside on the probe class's own heap: a raw store scan, object decode,
//! predicate evaluation, encode; and the busy server's ping floor.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ode_core::object::{decode_record, is_anchor, ObjRecord};
use ode_core::Database;
use ode_model::encode::encode_object;
use ode_model::{parse_expr, EvalCtx, ObjState};
use ode_server::client::Client;

use crate::stats::median;
use crate::workload::{Env, Workload};

/// Objects the decode / eval / encode probes work on, at most.
const PROBE_OBJECTS: usize = 20_000;

/// What the probes measured on the probe class's heap.
#[derive(Default)]
pub struct Probes {
    pub store_scan_ns_per_obj: f64,
    pub decode_ns_per_obj: f64,
    pub eval_ns_per_obj: f64,
    pub encode_ns_per_obj: f64,
    pub query_scan_ns_per_obj: f64,
    pub mean_record_bytes: f64,
    pub heap_bytes: f64,
}

/// Median wall time of three calls, ns.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Time the layers under a scan, each from outside, on the probe
/// class's own heap.
pub fn run_probes<W: Workload>(workload: &W) -> Probes {
    let env = workload.env();
    let probe = workload.probe();
    let db: &Database = &env.db;
    let heap = db
        .read(|tx| {
            Ok(tx
                .forall(probe.class)?
                .collect_oids()?
                .first()
                .map(|o| o.cluster))
        })
        .expect("probe class is readable");
    let Some(heap) = heap else {
        return Probes::default();
    };

    let mut records: Vec<Vec<u8>> = Vec::new();
    let (mut objects, mut bytes) = (0u64, 0u64);
    let scan_ns = median_ns(|| {
        (objects, bytes) = (0, 0);
        env.store
            .scan(heap, &mut |_, record| {
                objects += 1;
                bytes += record.len() as u64;
                Ok(true)
            })
            .expect("store scan");
    });
    env.store
        .scan(heap, &mut |_, record| {
            if is_anchor(record) && records.len() < PROBE_OBJECTS {
                records.push(record.to_vec());
            }
            Ok(true)
        })
        .expect("store scan");
    let n = records.len().max(1) as f64;

    // Decode as a scan does: one object at a time, dropped before the next.
    let decode_ns = median_ns(|| {
        for record in &records {
            let _ = std::hint::black_box(decode_record(record));
        }
    });
    let states: Vec<ObjState> = records
        .iter()
        .filter_map(|record| match decode_record(record) {
            Ok(ObjRecord::Plain(state)) => Some(state),
            _ => None,
        })
        .collect();
    let predicate = parse_expr(probe.predicate).expect("probe predicate parses");
    let eval_ns = median_ns(|| {
        db.with_schema(|schema| {
            for state in &states {
                let _ = std::hint::black_box(
                    EvalCtx::new(schema).with_this(state).eval_bool(&predicate),
                );
            }
        })
    });
    let encode_ns = median_ns(|| {
        for state in &states {
            std::hint::black_box(encode_object(state));
        }
    });
    let query_ns = median_ns(|| {
        let counted = db.read(|tx| tx.forall(probe.class)?.suchthat(probe.predicate)?.count());
        std::hint::black_box(counted.expect("probe query"));
    });

    let per_obj = |ns: f64, n: f64| ns / n.max(1.0);
    Probes {
        store_scan_ns_per_obj: per_obj(scan_ns, objects as f64),
        decode_ns_per_obj: per_obj(decode_ns, n),
        eval_ns_per_obj: per_obj(eval_ns, n),
        encode_ns_per_obj: per_obj(encode_ns, n),
        // A counting `forall … suchthat` per object, whole: the store's scan,
        // the decode and the predicate above are parts of it, and the query
        // layer's own share is what they leave. (The parts are timed on
        // copies, so their sum can exceed the whole by a few percent.)
        query_scan_ns_per_obj: per_obj(query_ns, objects as f64),
        mean_record_bytes: per_obj(bytes as f64, objects as f64),
        heap_bytes: bytes as f64,
    }
}

/// The ping probe: `Client::ping()` in a closed loop on a connection of its
/// own for `total`, round trips in ns.
pub fn ping_probe(env: &Env, total: Duration, out: &Mutex<Vec<u32>>) {
    let Some(server) = &env.server else { return };
    let mut client = Client::connect(server.addr()).expect("connect ping probe");
    let started = Instant::now();
    let mut ns = Vec::new();
    while started.elapsed() < total {
        let t = Instant::now();
        if client.ping().is_ok() {
            ns.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
    }
    *out.lock().expect("ping samples") = ns;
}
