//! Property-based tests for the storage substrate.
//!
//! The slotted page and the heap layer are driven with arbitrary operation
//! sequences against a trivial reference model (a `HashMap`); the
//! invariants checked are exactly the contract the engine relies on:
//! stable record ids, exact payload round-trips, scan = live set, and
//! durability across close/reopen and WAL replay.

use std::collections::HashMap;

use proptest::prelude::*;

use ode_storage::page::{Page, PageType};
use ode_storage::{FileStore, MemStore, RecordId, Store, StoreOp};

// ---------------------------------------------------------------- pages

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 0..600).prop_map(PageOp::Insert),
        2 => (any::<usize>(), prop::collection::vec(any::<u8>(), 0..600))
            .prop_map(|(i, d)| PageOp::Update(i, d)),
        1 => any::<usize>().prop_map(PageOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A page behaves like a map slot->bytes under arbitrary operations,
    /// and survives serialization at every step.
    #[test]
    fn page_matches_model(ops in prop::collection::vec(page_op(), 1..120)) {
        let mut page = Page::new(PageType::Heap, 1);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                PageOp::Insert(data) => {
                    if let Some(slot) = page.insert(&data) {
                        model.insert(slot, data);
                    }
                }
                PageOp::Update(pick, data) => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[pick % slots.len()];
                    if page.update(slot, &data) {
                        model.insert(slot, data);
                    }
                }
                PageOp::Delete(pick) => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[pick % slots.len()];
                    page.delete(slot);
                    model.remove(&slot);
                }
            }
            // Every model entry is readable with exact content.
            for (&slot, data) in &model {
                prop_assert_eq!(page.record(slot).unwrap(), &data[..]);
            }
            // And nothing extra is live.
            let live = page.iter_records().count();
            prop_assert_eq!(live, model.len());
            // Serialization round-trips.
            let back = Page::from_image(Box::new(*page.seal())).unwrap();
            for (&slot, data) in &model {
                prop_assert_eq!(back.record(slot).unwrap(), &data[..]);
            }
        }
    }
}

// ---------------------------------------------------------------- stores

#[derive(Debug, Clone)]
enum HeapOp {
    Put(Vec<u8>),
    Overwrite(usize, Vec<u8>),
    Delete(usize),
    Reopen,
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        4 => prop::collection::vec(any::<u8>(), 0..2000).prop_map(HeapOp::Put),
        3 => (any::<usize>(), prop::collection::vec(any::<u8>(), 0..4000))
            .prop_map(|(i, d)| HeapOp::Overwrite(i, d)),
        2 => any::<usize>().prop_map(HeapOp::Delete),
        1 => Just(HeapOp::Reopen),
    ]
}

fn check_against_model(store: &dyn Store, heap: u32, model: &HashMap<RecordId, Vec<u8>>) {
    for (rid, data) in model {
        assert_eq!(&store.read(heap, *rid).unwrap(), data, "read {rid}");
    }
    let mut scanned: HashMap<RecordId, Vec<u8>> = HashMap::new();
    store
        .scan(heap, &mut |rid, bytes| {
            scanned.insert(rid, bytes.to_vec());
            Ok(true)
        })
        .unwrap();
    assert_eq!(&scanned, model, "scan contents");
}

fn run_store_ops(
    make: impl Fn() -> Box<dyn Store>,
    reopen: impl Fn(Box<dyn Store>) -> Box<dyn Store>,
    ops: Vec<HeapOp>,
) {
    let mut store = make();
    let heap = store.create_heap().unwrap();
    let mut model: HashMap<RecordId, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            HeapOp::Put(data) => {
                let rid = store.reserve(heap, data.len()).unwrap();
                store
                    .commit(vec![StoreOp::Put {
                        heap,
                        rid,
                        data: data.clone(),
                    }])
                    .unwrap();
                model.insert(rid, data);
            }
            HeapOp::Overwrite(pick, data) => {
                let rids: Vec<RecordId> = model.keys().copied().collect();
                if rids.is_empty() {
                    continue;
                }
                let rid = rids[pick % rids.len()];
                store
                    .commit(vec![StoreOp::Put {
                        heap,
                        rid,
                        data: data.clone(),
                    }])
                    .unwrap();
                model.insert(rid, data);
            }
            HeapOp::Delete(pick) => {
                let rids: Vec<RecordId> = model.keys().copied().collect();
                if rids.is_empty() {
                    continue;
                }
                let rid = rids[pick % rids.len()];
                store.commit(vec![StoreOp::Delete { heap, rid }]).unwrap();
                model.remove(&rid);
            }
            HeapOp::Reopen => {
                store = reopen(store);
            }
        }
        check_against_model(store.as_ref(), heap, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The in-memory store honors the contract.
    #[test]
    fn memstore_matches_model(ops in prop::collection::vec(heap_op(), 1..60)) {
        // MemStore cannot reopen; treat Reopen as a no-op.
        let ops: Vec<HeapOp> = ops
            .into_iter()
            .map(|op| match op { HeapOp::Reopen => HeapOp::Put(vec![1]), other => other })
            .collect();
        run_store_ops(
            || Box::new(MemStore::new()),
            |s| s,
            ops,
        );
    }

    /// The durable store honors the contract, including across reopens
    /// (which exercise WAL replay and the heap-rebuild scan).
    #[test]
    fn filestore_matches_model_across_reopens(
        ops in prop::collection::vec(heap_op(), 1..40),
        case_id in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ode-prop-store-{}-{case_id}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let dir2 = dir.clone();
            let dir3 = dir.clone();
            run_store_ops(
                move || Box::new(FileStore::open(&dir2).unwrap()),
                move |old| {
                    drop(old);
                    Box::new(FileStore::open(&dir3).unwrap())
                },
                ops,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
