//! Wiring for the simulated deployment: client + in-process Cricket server
//! on a shared virtual clock.

use crate::env::EnvConfig;
use crate::raw::CricketClient;
use crate::safe::Context;
use crate::stripe::StripePool;
use cricket_server::{make_rpc_server, CricketServer, ServerConfig, SimTransport};
use simnet::SimClock;
use std::sync::Arc;

/// Handles to the simulated deployment shared by one or more clients.
pub struct SimSetup {
    /// The virtual clock everything charges.
    pub clock: Arc<SimClock>,
    /// The Cricket server.
    pub server: Arc<CricketServer>,
    /// The RPC layer wrapping the server.
    pub rpc: Arc<oncrpc::RpcServer>,
}

impl SimSetup {
    /// Create a fresh simulated GPU node.
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// Create a simulated GPU node with a custom server configuration
    /// (e.g. a smaller device: simulated allocations are backed by host
    /// memory, so tests exercising OOM paths should shrink the device).
    pub fn with_config(cfg: ServerConfig) -> Self {
        let clock = SimClock::new();
        let server = CricketServer::new(cfg, Arc::clone(&clock));
        let rpc = make_rpc_server(Arc::clone(&server));
        Self { clock, server, rpc }
    }

    /// Connect a client in the given environment to this GPU node.
    pub fn client(&self, env: EnvConfig) -> CricketClient {
        let transport =
            SimTransport::new(Arc::clone(&self.rpc), env.guest(), Arc::clone(&self.clock));
        CricketClient::new(
            Box::new(transport),
            env.flavor(),
            Some(Arc::clone(&self.clock)),
        )
    }

    /// Connect a safe-API context in the given environment.
    pub fn context(&self, env: EnvConfig) -> Context {
        Context::from_client(self.client(env))
    }

    /// Build one simulated transport to this GPU node (the raw material for
    /// chaos wrappers and reconnect hooks).
    pub fn transport(&self, env: EnvConfig) -> Box<dyn oncrpc::Transport> {
        Box::new(SimTransport::new(
            Arc::clone(&self.rpc),
            env.guest(),
            Arc::clone(&self.clock),
        ))
    }

    /// Connect a client with an attached [`StripePool`] of `lanes`
    /// simulated connections. Each lane charges wire time to a private
    /// clock, which the pool aligns with the shared clock around each
    /// striped transfer, so the lanes' wire time overlaps — the
    /// virtual-time model of N independent connections.
    pub fn striped_client(&self, env: EnvConfig, lanes: usize) -> CricketClient {
        let mut client = self.client(env);
        client.enable_striping(self.stripe_pool(env, lanes));
        client
    }

    /// Build a stripe pool of `lanes` simulated connections to this GPU
    /// node, wired to overlap in virtual time.
    pub fn stripe_pool(&self, env: EnvConfig, lanes: usize) -> StripePool {
        self.stripe_pool_with(env, lanes, |t, _| t)
    }

    /// [`Self::stripe_pool`] with a per-lane transport wrapper: `wrap`
    /// receives each lane's simulated transport and its lane index, and
    /// may interpose (e.g. an [`oncrpc::FaultyTransport`] with a per-lane
    /// fault schedule for chaos tests).
    pub fn stripe_pool_with(
        &self,
        env: EnvConfig,
        lanes: usize,
        mut wrap: impl FnMut(Box<dyn oncrpc::Transport>, usize) -> Box<dyn oncrpc::Transport>,
    ) -> StripePool {
        let clocks: Vec<Arc<SimClock>> = (0..lanes).map(|_| SimClock::new()).collect();
        let clients = clocks
            .iter()
            .enumerate()
            .map(|(i, clock)| {
                let t = SimTransport::new(Arc::clone(&self.rpc), env.guest(), Arc::clone(clock));
                cricket_proto::CricketV1Client::new(wrap(Box::new(t), i))
            })
            .collect();
        StripePool::new(clients, Some((Arc::clone(&self.clock), clocks)))
    }

    /// Connect a client whose RPC records pass through a fault-injecting
    /// [`oncrpc::FaultyTransport`] driven by the shared `plan`.
    pub fn chaos_client(&self, env: EnvConfig, plan: &oncrpc::SharedFaultPlan) -> CricketClient {
        let inner = self.transport(env);
        let faulty = oncrpc::FaultyTransport::new(inner, Arc::clone(plan));
        CricketClient::new(
            Box::new(faulty),
            env.flavor(),
            Some(Arc::clone(&self.clock)),
        )
    }

    /// Current virtual time in seconds.
    pub fn seconds(&self) -> f64 {
        self.clock.now_ns() as f64 / 1e9
    }
}

impl Default for SimSetup {
    fn default() -> Self {
        Self::new()
    }
}

/// One-call convenience: a context in `env` on a fresh GPU node.
pub fn simulated(env: EnvConfig) -> (Context, SimSetup) {
    let setup = SimSetup::new();
    let ctx = setup.context(env);
    (ctx, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safe::DeviceBuffer;
    use crate::{CubinBuilder, ParamBuilder};

    #[test]
    fn end_to_end_vector_add_through_safe_api() {
        let (ctx, setup) = simulated(EnvConfig::RustyHermit);
        assert_eq!(ctx.device_count().unwrap(), 4);

        // "nvcc": build a cubin, optionally compressed, load via cuModule.
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .code(b"device code")
            .build(true);
        let module = ctx.load_module(&image).unwrap();
        let f = module.function("vectorAdd").unwrap();

        let n = 1024usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let da = ctx.upload(&a).unwrap();
        let db = ctx.upload(&b).unwrap();
        let dc: DeviceBuffer<'_, f32> = ctx.alloc(n).unwrap();

        let params = ParamBuilder::new()
            .ptr(dc.ptr())
            .ptr(da.ptr())
            .ptr(db.ptr())
            .u32(n as u32)
            .build();
        ctx.launch(&f, (4, 1, 1).into(), (256, 1, 1).into(), 0, None, &params)
            .unwrap();
        ctx.synchronize().unwrap();
        let c = dc.copy_to_vec().unwrap();
        for (i, v) in c.iter().enumerate().take(n) {
            assert_eq!(*v, 3.0 * i as f32);
        }
        assert!(setup.seconds() > 0.0);
        let stats = ctx.stats();
        assert!(stats.api_calls >= 8);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn drop_order_frees_cleanly_and_server_sees_all_frees() {
        let (ctx, setup) = simulated(EnvConfig::RustNative);
        {
            let _a = ctx.alloc::<f64>(100).unwrap();
            let _b = ctx.alloc::<u32>(100).unwrap();
            let _m = ctx
                .load_module(&CubinBuilder::new().kernel("empty", &[]).build(false))
                .unwrap();
            let _s = ctx.stream().unwrap();
            let _e = ctx.event().unwrap();
        } // everything drops here
        let stats = ctx.stats();
        assert_eq!(stats.per_api["cudaMalloc"], 2);
        assert_eq!(stats.per_api["cudaFree"], 2);
        assert_eq!(stats.per_api["cuModuleUnload"], 1);
        assert_eq!(stats.per_api["cudaStreamDestroy"], 1);
        assert_eq!(stats.per_api["cudaEventDestroy"], 1);
        let _ = setup;
    }

    #[test]
    fn events_measure_kernel_time() {
        let (ctx, _setup) = simulated(EnvConfig::LinuxVm);
        let module = ctx
            .load_module(&CubinBuilder::new().kernel("empty", &[]).build(false))
            .unwrap();
        let f = module.function("empty").unwrap();
        let start = ctx.event().unwrap();
        let stop = ctx.event().unwrap();
        start.record(None).unwrap();
        for _ in 0..100 {
            ctx.launch(&f, (1, 1, 1).into(), (1, 1, 1).into(), 0, None, &[])
                .unwrap();
        }
        stop.record(None).unwrap();
        let ms = start.elapsed_ms(&stop).unwrap();
        // Events measure the device timeline *including* the idle gaps while
        // each launch RPC crosses the network (~60 µs per launch in a VM),
        // exactly like real CUDA events around a latency-bound loop:
        // 100 launches ≈ 100 × (launch RPC + 3.5 µs kernel) ≈ 5–10 ms.
        assert!((1.0..30.0).contains(&ms), "elapsed {ms} ms");
    }

    #[test]
    fn multiple_clients_share_one_gpu_node() {
        let setup = SimSetup::new();
        let c1 = setup.context(EnvConfig::RustyHermit);
        let c2 = setup.context(EnvConfig::Unikraft);
        let b1 = c1.upload(&[1.0f32; 64]).unwrap();
        let b2 = c2.upload(&[2.0f32; 64]).unwrap();
        // Distinct allocations on the same device.
        assert_ne!(b1.ptr(), b2.ptr());
        let stats = c1.with_raw(|r| r.server_stats()).unwrap();
        let sessions = stats.get("server.sessions");
        assert_eq!(sessions, Some(1), "sessions are per make_rpc_server");
        assert!(stats.get("server.calls").unwrap() >= 2);
    }

    #[test]
    fn upload_download_preserves_f64_precision() {
        let (ctx, _s) = simulated(EnvConfig::Unikraft);
        let data = vec![1.0f64 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0];
        let buf = ctx.upload(&data).unwrap();
        let back = buf.copy_to_vec().unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
