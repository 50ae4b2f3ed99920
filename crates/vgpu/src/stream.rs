//! Events with CUDA ordering semantics on the virtual clock.
//!
//! Streams themselves are per-stream command queues ([`crate::queue`]): a
//! FIFO of device work where each command starts after all previously
//! enqueued work on that stream has finished. An event records the stream's
//! completion frontier at record time; `cudaEventElapsedTime` measures
//! between two recorded events in device time — which is how the proxy
//! applications time their kernels, exactly like the CUDA samples.

/// State of one event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EventState {
    /// Device timestamp captured by the last `cudaEventRecord`, if any.
    pub recorded_at_ns: Option<u64>,
}

impl EventState {
    /// Record against a stream frontier.
    pub fn record(&mut self, stream_completes_at_ns: u64) {
        self.recorded_at_ns = Some(stream_completes_at_ns);
    }

    /// Elapsed milliseconds between two recorded events (CUDA returns f32
    /// milliseconds). `None` if either event was never recorded.
    pub fn elapsed_ms(start: &EventState, stop: &EventState) -> Option<f32> {
        match (start.recorded_at_ns, stop.recorded_at_ns) {
            (Some(a), Some(b)) => Some((b.saturating_sub(a)) as f32 / 1e6),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{CommandKind, CommandQueue};

    #[test]
    fn events_measure_stream_time() {
        let mut q = CommandQueue::default();
        let mut start = EventState::default();
        let mut stop = EventState::default();
        start.record(q.frontier_ns());
        let k = CommandKind::Kernel { func: 1 };
        q.enqueue(0, 1, k, 3_000_000); // 3 ms of kernels
        q.enqueue(0, 2, k, 1_500_000);
        stop.record(q.frontier_ns());
        let ms = EventState::elapsed_ms(&start, &stop).unwrap();
        assert!((ms - 4.5).abs() < 1e-6);
    }

    #[test]
    fn unrecorded_events_yield_none() {
        let e = EventState::default();
        let mut r = EventState::default();
        r.record(5);
        assert!(EventState::elapsed_ms(&e, &r).is_none());
        assert!(EventState::elapsed_ms(&r, &e).is_none());
    }
}
