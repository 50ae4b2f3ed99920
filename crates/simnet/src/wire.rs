//! Physical link model: 100 Gbit/s Ethernet configured for IPoIB, MTU 9000
//! (the paper's interconnect).

/// A point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + switch latency in nanoseconds.
    pub latency_ns: u64,
    /// Link MTU in bytes (IP MTU; the paper configures 9000).
    pub mtu: usize,
}

impl Wire {
    /// The paper's interconnect: ConnectX-5 at 100 Gbit/s, IPoIB, MTU 9000.
    /// IPoIB on 100 Gb EDR yields roughly 90 Gbit/s of usable TCP goodput;
    /// one-way latency of a cut-through switch + NIC pair ≈ 1.5 µs.
    pub fn ethernet_100g() -> Self {
        Self {
            bandwidth_bps: 90e9 / 8.0,
            latency_ns: 1_500,
            mtu: 9000,
        }
    }

    /// Serialization time for `bytes` on the wire (no latency term).
    pub fn serialize_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.bandwidth_bps * crate::NS_PER_SEC) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_linearly() {
        let w = Wire::ethernet_100g();
        let t1 = w.serialize_ns(1 << 20);
        let t2 = w.serialize_ns(2 << 20);
        assert!((t2 as i64 - 2 * t1 as i64).unsigned_abs() <= 2);
    }

    #[test]
    fn hundred_gig_is_fast() {
        let w = Wire::ethernet_100g();
        // 1 MiB at ~90 Gbit/s ≈ 93 µs.
        let t = w.serialize_ns(1 << 20);
        assert!((80_000..110_000).contains(&t), "unexpected {t} ns");
    }
}
