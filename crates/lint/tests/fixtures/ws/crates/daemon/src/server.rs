//! Fixture for `unregistered-fault-point` over a second crate: the three
//! registered `store.*` points are silent, one bogus literal is a violation
//! (1 finding).

use bgc_runtime::fault;

pub fn read() -> std::io::Result<()> {
    fault::fire_io("store.read")
}

pub fn lock() -> std::io::Result<()> {
    fault::fire_io("store.lock")
}

pub fn write() -> std::io::Result<()> {
    fault::fire_io("store.write")
}

pub fn unregistered() {
    fault::fire("daemon.bogus");
}
