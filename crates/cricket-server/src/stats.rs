//! The server's statistics: its own counters, and the one list of every
//! counter it reports, which `SRV_GET_STATS` returns (DESIGN §17).

use crate::CricketServer;
use cricket_proto::{ServerStats, Stat};
use std::sync::Arc;

oncrpc::counters! {
    /// The server's own counters (`server.*`): what `SRV_RESET_STATS` zeroes.
    pub(crate) const METRICS = {
        CALLS = "server.calls", // CUDA API calls, each op of a batch one
        BYTES_IN = "server.bytes_in", // payload bytes received: copies, images, blobs
        BYTES_OUT = "server.bytes_out", // payload bytes sent back
        KERNELS_LAUNCHED = "server.kernels_launched", // kernel launches, batched ones included
    }
}

impl CricketServer {
    /// Every statistic this server reports, by stable name: its own
    /// counters, its live sessions and its devices' time, then the counters
    /// of the reactor serving it (zero when none does) and of its replay
    /// cache.
    pub fn stats(&self) -> ServerStats {
        let sessions = ("server.sessions", self.sessions.lock().len() as u64);
        let time = self.devices.iter().map(|d| d.lock().stats.device_time_ns);
        let time = ("device.time_ns", time.sum());
        let reactor = Arc::clone(&self.reactor.lock());
        let served = reactor.iter().chain(self.replay.metrics().iter());
        let all = self.metrics.iter().chain([sessions, time]).chain(served);
        let stats = xdr::XdrVec(all.map(Stat::from).collect());
        ServerStats { stats }
    }
}

#[cfg(test)]
mod tests {
    use crate::CricketServer;

    /// `SRV_GET_STATS` lists exactly these names, in this order (the table
    /// in DESIGN §17); a server no reactor serves lists `reactor.*` at zero.
    #[test]
    fn the_statistics_are_exactly_the_named_set() {
        let stats = CricketServer::a100().stats();
        let names: Vec<_> = stats.stats.iter().map(|s| s.name.as_str()).collect();
        let reactor = [
            "inline_replies",
            "parked_calls",
            "stalls",
            "bufs_reused",
            "bufs_allocated",
            "writer_kills",
            "queued_replies",
            "wakeups",
            "reads",
            "reads_would_block",
            "notifies",
            "worker_wakeups",
        ];
        let mut want = vec![
            "server.calls".to_string(),
            "server.bytes_in".into(),
            "server.bytes_out".into(),
            "server.kernels_launched".into(),
            "server.sessions".into(),
            "device.time_ns".into(),
        ];
        want.extend(reactor.map(|n| format!("reactor.{n}")));
        want.extend(["hits", "stores", "evictions"].map(|n| format!("replay.{n}")));
        assert_eq!(names, want);
        assert!(stats.stats.iter().all(|s| s.value == 0), "{stats:?}");
    }
}
