//! A data file written by the bytewise CRC-32 kernel, before the
//! slice-by-16 one, opens and reads back with no migration, and takes new
//! writes. `fixtures/bytewise-crc-store` holds that store after a clean
//! close: a four-page data file (meta page and three heap pages) and an
//! empty WAL. The writer committed `record(i)` for `i` in `0..60` to heap
//! 1 and "one note" to heap 2, then deleted record 3 and grew record 7 to
//! three times its length.

use std::path::{Path, PathBuf};

use ode_storage::filestore::{FileStore, FileStoreOptions};
use ode_storage::{Store, StoreOp};

fn record(i: usize) -> Vec<u8> {
    format!("record {i:03} in a store written by the bytewise CRC-32; ")
        .repeat(1 + i % 7)
        .into_bytes()
}

fn copy_fixture() -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bytewise-crc-store");
    let dir = std::env::temp_dir().join(format!("ode-stored-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["data.odb", "wal.odb"] {
        std::fs::copy(from.join(file), dir.join(file)).unwrap();
    }
    dir
}

/// Every record of `heap`, sorted.
fn contents(store: &FileStore, heap: u32) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    store
        .scan(heap, &mut |_, data| {
            out.push(data.to_vec());
            Ok(true)
        })
        .unwrap();
    out.sort();
    out
}

#[test]
fn a_store_written_by_the_bytewise_kernel_opens_and_grows() {
    let dir = copy_fixture();
    let open = || {
        // A pool of the minimum size: the reads below miss and verify
        // every page from the file.
        FileStore::open_with(
            &dir,
            FileStoreOptions {
                pool_pages: 8,
                sync_commits: false,
                ..FileStoreOptions::default()
            },
        )
        .unwrap()
    };
    let mut parts: Vec<Vec<u8>> = (0..60)
        .filter(|&i| i != 3)
        .map(|i| {
            if i == 7 {
                record(7).repeat(3)
            } else {
                record(i)
            }
        })
        .collect();
    parts.sort();
    {
        let store = open();
        assert_eq!(store.stats().page_count, 4);
        assert_eq!(contents(&store, 1), parts);
        assert_eq!(contents(&store, 2), [b"one note".to_vec()]);
        let rid = store.reserve(1, 16).unwrap();
        store
            .commit(vec![StoreOp::Put {
                heap: 1,
                rid,
                data: b"written after".to_vec(),
            }])
            .unwrap();
    }
    parts.push(b"written after".to_vec());
    parts.sort();
    let store = open();
    store.clear_cache().unwrap();
    assert_eq!(contents(&store, 1), parts);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
