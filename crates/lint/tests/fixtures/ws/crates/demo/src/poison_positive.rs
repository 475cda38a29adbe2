//! Positive fixture for `poison-unsafe-lock`: the exact memo-lock shape the
//! workspace used before `bgc_runtime::relock` (condense/methods.rs and
//! core/selector.rs pre-fix), plus the RwLock variant from the registry.
//! The unwrap/expect here also fire `unchecked-panic` (2 more findings).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, RwLock};

static MEMO: OnceLock<Mutex<BTreeMap<u64, f32>>> = OnceLock::new();
static TABLE: OnceLock<RwLock<Vec<String>>> = OnceLock::new();

pub fn cached(key: u64) -> Option<f32> {
    let memo = MEMO.get_or_init(|| Mutex::new(BTreeMap::new()));
    let guard = memo.lock().unwrap();
    guard.get(&key).copied()
}

pub fn names() -> Vec<String> {
    let table = TABLE.get_or_init(|| RwLock::new(Vec::new()));
    table.read().expect("registry lock").clone()
}
