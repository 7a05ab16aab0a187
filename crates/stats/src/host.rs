//! What the process may run on.
//!
//! Two layers fan work out over the host's cores: the server's ingest
//! (one worker per 256 chains) and the crowd's mobility pass (one worker
//! per 16 384 sensor-steps). Both size their fan-out from this one read.

use std::sync::OnceLock;

/// The cores this process may run on, read once: `available_parallelism`
/// reads cgroup files and follows the affinity mask, which no epoch
/// should pay for. `1` when it cannot tell.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
