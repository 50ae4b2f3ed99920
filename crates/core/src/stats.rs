//! API-call and transfer accounting.
//!
//! The paper's §4.1 reports, per proxy application, the number of CUDA API
//! calls and the bytes moved ("the matrixMul application requires 100,041
//! CUDA API calls and 1.95 MiB of memory transfers, ..."). Every call
//! through [`crate::raw::CricketClient`] updates these counters; the
//! `table_calls` harness prints the reproduction of that table. The
//! transfer counters have one writer, `CricketClient::account`, and one
//! rule: a copy counts when its call returns `Ok`. They are facts only this
//! client produces, so they live on the instance — as does what the RPC
//! stack below does to a payload: the client's own staging is
//! `rpc().stats().bytes_copied`, its transport's
//! `rpc().transport().bytes_copied()`.

use std::collections::BTreeMap;

/// Client-side accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ApiStats {
    /// Total CUDA API calls issued (every forwarded call; `RPC_NULL` and
    /// server-management procedures are excluded).
    pub api_calls: u64,
    /// Host→device payload bytes.
    pub bytes_h2d: u64,
    /// Device→host payload bytes.
    pub bytes_d2h: u64,
    /// What `bytes_h2d` came to on the wire: equal to it unless a copy
    /// travelled sparse, then less by the zero pages left out.
    pub wire_bytes_h2d: u64,
    /// All-zero pages the sparse route kept off the wire.
    pub sparse_pages_elided: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Per-API call counts.
    pub per_api: BTreeMap<&'static str, u64>,
}

impl ApiStats {
    /// Record one call of `api`.
    pub fn count(&mut self, api: &'static str) {
        self.api_calls += 1;
        *self.per_api.entry(api).or_insert(0) += 1;
    }

    /// Total transferred bytes, both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_h2d + self.bytes_d2h
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = ApiStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_accumulates() {
        let mut s = ApiStats::default();
        s.count("cudaMalloc");
        s.count("cudaMalloc");
        s.count("cudaFree");
        assert_eq!(s.api_calls, 3);
        assert_eq!(s.per_api["cudaMalloc"], 2);
        assert_eq!(s.per_api["cudaFree"], 1);
    }

    #[test]
    fn byte_math() {
        let mut s = ApiStats {
            bytes_h2d: 1024 * 1024,
            bytes_d2h: 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(s.bytes_total(), 2 * 1024 * 1024);
        s.reset();
        assert_eq!(s.api_calls, 0);
        assert_eq!(s.bytes_total(), 0);
    }
}
