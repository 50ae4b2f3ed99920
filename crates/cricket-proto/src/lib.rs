//! Cricket CUDA RPC protocol, generated from `proto/cricket.x`.
//!
//! Everything in this crate is produced by the `rpcl` compiler at build time;
//! the `.x` file is the single source of truth for the wire protocol, exactly
//! as in the paper: *"functions listed in the RPCL file are immediately
//! available for applications"* (§3.5). The items of interest are:
//!
//! * [`CRICKET_CUDA`] / [`CRICKET_V1`] — program and version numbers,
//! * [`cricket_v1`] — procedure-number constants and the per-procedure
//!   attribute tables (`is_idempotent`, `is_batchable`, `is_inline`, `is_admin`),
//! * data types ([`RpcDim3`], [`DeviceProp`], [`U64Result`], ...), among
//!   them the session state inside the opaque argument of the checkpoint
//!   and migration procedures ([`MigBlob`], [`Ckpt`]),
//! * [`CricketV1Client`] — the typed client stub (used by `cricket-client`),
//! * [`CricketV1Service`] / [`CricketV1Dispatch`] — the server skeleton
//!   (implemented by `cricket-server`), and [`CricketV1BatchOp`], the
//!   decoder for the sub-ops of a `CRICKET_BATCH_EXEC` body,
//! * `into_result` on every result union (`switch (int err) { case 0: T x;
//!   default: void; }`: [`U64Result::into_result`], ...), its value or
//!   the error code, and [`cricket_v1::status`] for a plain `int` result,
//! * [`cricket_v1_api!`] — the typed client API: one method per procedure
//!   declaring `api(method, "name")`, which `cricket-client` expands once
//!   inside `CricketClient`, each body handing its call to that client's
//!   `call`, `manage` or `issue` hook.

include!(concat!(env!("OUT_DIR"), "/cricket_proto.rs"));

impl RpcDim3 {
    /// A 1×1×1 geometry.
    pub fn one() -> Self {
        Self { x: 1, y: 1, z: 1 }
    }
}

impl ServerStats {
    /// The value of the statistic called `name` (DESIGN.md lists them).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.stats.iter().find(|s| s.name == name).map(|s| s.value)
    }
}

impl From<(&str, u64)> for Stat {
    fn from((name, value): (&str, u64)) -> Self {
        let name = name.into();
        Self { name, value }
    }
}

impl From<(u32, u32, u32)> for RpcDim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Self { x, y, z }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RpcDim3 {
        /// Total element count (x·y·z).
        fn count(&self) -> u64 {
            self.x as u64 * self.y as u64 * self.z as u64
        }
    }

    #[test]
    fn program_constants_match_spec() {
        assert_eq!(CRICKET_CUDA, 537395001);
        assert_eq!(CRICKET_V1, 1);
        assert_eq!(cricket_v1::RPC_NULL, 0);
        assert_eq!(cricket_v1::CUDA_MALLOC, 7);
        assert_eq!(cricket_v1::CUDA_LAUNCH_KERNEL, 23);
        assert_eq!(cricket_v1::CUSOLVER_DN_DGETRS, 54);
        assert_eq!(cricket_v1::SRV_SET_SCHEDULER, 64);
    }

    /// The tagged session-state types lead with the words their `MAGIC_` /
    /// `VERSION_` constants declare, round-trip, and refuse another word
    /// with an error naming the type and the word.
    #[test]
    fn tagged_types_round_trip_and_refuse_a_wrong_word() {
        let blob = MigBlob {
            kind: MigKind::Delta,
            meta: SessionMeta::default(),
            mem: MigMem::default(),
            replay: vec![ReplayEntry {
                xid: 7,
                reply: vec![1, 2],
            }]
            .into(),
        };
        let ckpt = Ckpt {
            blobs: vec![blob].into(),
        };
        let wire = xdr::encode(&ckpt);
        let word = |at: usize| u32::from_be_bytes(wire[at..at + 4].try_into().unwrap());
        let tags = [MAGIC_CKPT, VERSION_CKPT, MAGIC_MIG_BLOB, VERSION_MIG_BLOB];
        assert_eq!(
            [word(0), word(4), word(12), word(16)],
            tags.map(|t| t as u32)
        );
        assert_eq!(xdr::decode::<Ckpt>(&wire), Ok(ckpt));
        for (at, type_name, word) in [
            (0, "ckpt", "magic"),
            (4, "ckpt", "version"),
            (12, "mig_blob", "magic"),
            (16, "mig_blob", "version"),
        ] {
            let mut bad = wire.clone();
            bad[at + 3] ^= 1;
            let found = u32::from_be_bytes(bad[at..at + 4].try_into().unwrap());
            let err = xdr::XdrError::WrongTag {
                type_name,
                word,
                found,
            };
            assert_eq!(xdr::decode::<Ckpt>(&bad), Err(err));
        }
    }

    /// `server_stats` leads with its tag words, reads by name, and a list
    /// past `CRICKET_MAX_STATS` is refused where it is decoded.
    #[test]
    fn server_stats_is_a_tagged_bounded_list() {
        let stat = |i: u64| Stat {
            name: format!("s.{i}"),
            value: i,
        };
        let list = |n: u64| ServerStats {
            stats: (0..n).map(stat).collect::<Vec<_>>().into(),
        };
        let max = CRICKET_MAX_STATS as u64;
        let wire = xdr::encode(&list(max));
        let word = |at: usize| i64::from(u32::from_be_bytes(wire[at..at + 4].try_into().unwrap()));
        assert_eq!(
            [word(0), word(4)],
            [MAGIC_SERVER_STATS, VERSION_SERVER_STATS]
        );
        let back = xdr::decode::<ServerStats>(&wire).unwrap();
        assert_eq!((back.get("s.7"), back.get("s.64")), (Some(7), None));
        let over = xdr::decode::<ServerStats>(&xdr::encode(&list(max + 1)));
        let bound = xdr::XdrError::LengthOutOfBounds {
            len: CRICKET_MAX_STATS as usize + 1,
            max: CRICKET_MAX_STATS as usize,
        };
        assert_eq!(over, Err(bound));
    }

    /// The batch-exec procedure must stay out of the idempotent table: a
    /// batch may contain non-idempotent sub-ops, so only the *client* may
    /// tag a flush retryable (and only when every recorded op is
    /// idempotent). The batchable table must list exactly the async
    /// status-only ops.
    #[test]
    fn batch_exec_tagging() {
        use cricket_v1::*;
        assert_eq!(CRICKET_BATCH_EXEC, 80);
        assert!(!is_idempotent(CRICKET_BATCH_EXEC));
        assert!(!is_batchable(CRICKET_BATCH_EXEC));
        for proc in [
            CUDA_MEMCPY_HTOD,
            CUDA_MEMCPY_DTOD,
            CUDA_MEMSET,
            CUDA_LAUNCH_KERNEL,
            CUDA_EVENT_RECORD,
            CUFFT_EXEC_C2C,
            CUFFT_EXEC_Z2Z,
            CUDA_MEMCPY_HTOD_SPARSE,
        ] {
            assert!(is_batchable(proc), "proc {proc} must be batchable");
            assert!(
                !is_idempotent(proc),
                "batchable proc {proc} is async/state-changing"
            );
        }
        // Sync points and handle-creating calls must never be batchable.
        for proc in [
            CUDA_DEVICE_SYNCHRONIZE,
            CUDA_STREAM_SYNCHRONIZE,
            CUDA_EVENT_SYNCHRONIZE,
            CUDA_MALLOC,
            CUDA_MEMCPY_DTOH,
        ] {
            assert!(!is_batchable(proc), "proc {proc} must not be batchable");
        }
        assert_eq!(CUDA_MEMCPY_HTOD_SPARSE, 83);
        assert!(!is_idempotent(CUDA_MEMCPY_HTOD_SPARSE));
    }

    /// The admin table is exactly the operator, checkpoint and migration
    /// control procedures — what admission control must never shed.
    #[test]
    fn admin_tagging() {
        use cricket_v1::*;
        let admin: Vec<u32> = (0..4096).filter(|&p| is_admin(p)).collect();
        let mut expected = vec![
            RPC_NULL,
            CKPT_CAPTURE,
            CKPT_RESTORE,
            SRV_GET_STATS,
            SRV_RESET_STATS,
            SRV_SET_SCHEDULER,
            MIG_APPLY_BASE,
            MIG_APPLY_DELTA,
            MIG_ABORT,
            CRICKET_QOS_SET,
        ];
        expected.sort_unstable();
        assert_eq!(admin, expected);
        assert!(admin.iter().all(|&p| !is_batchable(p)));
    }

    #[test]
    fn batch_receipt_roundtrips() {
        let r = BatchResult::Receipt(BatchReceipt {
            statuses: vec![0, 0, 719, -1].into(),
            executed: 3,
            queued_ns: 12_000,
            last_completes_at_ns: 99_000,
        });
        let buf = xdr::encode(&r);
        assert_eq!(xdr::decode::<BatchResult>(&buf).unwrap(), r);
        let e = BatchResult::Default(400);
        let buf = xdr::encode(&e);
        assert_eq!(xdr::decode::<BatchResult>(&buf).unwrap(), e);
    }

    #[test]
    fn cuda_error_codes() {
        assert_eq!(CudaError::CudaSuccess as i32, 0);
        assert_eq!(CudaError::CudaErrorInvalidHandle as i32, 400);
        assert_eq!(
            CudaError::from_i32(719),
            Some(CudaError::CudaErrorLaunchFailure)
        );
        assert_eq!(CudaError::from_i32(12345), None);
    }

    #[test]
    fn result_union_roundtrips() {
        for v in [
            U64Result::Data(0xdead_beef_0000_0001),
            U64Result::Default(2),
        ] {
            let buf = xdr::encode(&v);
            assert_eq!(xdr::decode::<U64Result>(&buf).unwrap(), v);
        }
        let d = DataResult::Data(vec![1, 2, 3, 4, 5]);
        let buf = xdr::encode(&d);
        assert_eq!(xdr::decode::<DataResult>(&buf).unwrap(), d);
    }

    proptest::proptest! {
        /// What a service writes through the reply sink is, byte for byte,
        /// what returning the owned union used to encode: every length
        /// (all four pad residues), and the error arm for any code.
        #[test]
        fn reply_sink_bytes_equal_the_owned_encoding(
            len in 0usize..=70_000,
            seed: u8,
            code: i32,
        ) {
            let v: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            let mut enc = xdr::XdrEncoder::new();
            let DataResultReplied(()) = DataResultReply(&mut enc).data(&v);
            proptest::prop_assert_eq!(enc.as_slice(), xdr::encode(&DataResult::Data(v)));
            enc.clear();
            let DataResultReplied(()) = DataResultReply(&mut enc).default(code);
            proptest::prop_assert_eq!(enc.as_slice(), xdr::encode(&DataResult::Default(code)));
        }
    }

    #[test]
    fn device_prop_roundtrip() {
        let p = DeviceProp {
            name: "NVIDIA A100-PCIE-40GB".into(),
            total_global_mem: 40 << 30,
            multi_processor_count: 108,
            clock_rate_khz: 1_410_000,
            major: 8,
            minor: 0,
            warp_size: 32,
            max_threads_per_block: 1024,
            memory_bandwidth_bytes_per_sec: 1_555_000_000_000,
        };
        let buf = xdr::encode(&p);
        assert_eq!(xdr::decode::<DeviceProp>(&buf).unwrap(), p);
    }

    #[test]
    fn dim3_helpers() {
        let d: RpcDim3 = (2, 3, 4).into();
        assert_eq!(d.count(), 24);
        assert_eq!(RpcDim3::one().count(), 1);
        let buf = xdr::encode(&d);
        assert_eq!(buf.len(), 12);
    }

    #[test]
    fn into_result_helpers() {
        assert_eq!(U64Result::Data(5).into_result(), Ok(5));
        assert_eq!(U64Result::Default(2).into_result(), Err(2));
        assert_eq!(IntResult::Data(-1).into_result(), Ok(-1));
        assert_eq!(FloatResult::Data(1.5).into_result(), Ok(1.5));
        assert_eq!(DataResult::Default(400).into_result(), Err(400));
    }

    /// The generated client and server must agree end to end over an
    /// in-memory transport, with a trivial hand-written service.
    #[test]
    fn generated_stub_and_skeleton_agree() {
        use oncrpc::{duplex_pair, RpcServer};
        use std::sync::Arc;

        struct Fake;
        #[allow(unused_variables)]
        impl CricketV1Service for Fake {
            fn rpc_null(&self) -> Result<(), oncrpc::AcceptStat> {
                Ok(())
            }
            fn cuda_get_device_count(&self) -> Result<IntResult, oncrpc::AcceptStat> {
                Ok(IntResult::Data(4))
            }
            fn cuda_get_device_properties(
                &self,
                arg0: i32,
            ) -> Result<PropResult, oncrpc::AcceptStat> {
                Ok(PropResult::Default(101))
            }
            fn cuda_set_device(&self, arg0: i32) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_get_device(&self) -> Result<IntResult, oncrpc::AcceptStat> {
                Ok(IntResult::Data(0))
            }
            fn cuda_device_synchronize(&self) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_device_reset(&self) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_malloc(&self, arg0: u64) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(0x1000 + arg0))
            }
            fn cuda_free(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_memcpy_htod_open(&self, arg0: u64, len: u64) -> Result<u64, i32> {
                Ok(arg0)
            }
            fn cuda_memcpy_htod_land(&self, at: u64, piece: &[u8]) -> Result<(), i32> {
                Ok(())
            }
            fn cuda_memcpy_htod_landed(
                &self,
                arg0: u64,
                len: u64,
                landed: Result<(), i32>,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(len as i32)
            }
            fn cuda_memcpy_dtoh(
                &self,
                arg0: u64,
                arg1: u64,
                reply: DataResultReply<'_>,
            ) -> Result<DataResultReplied, oncrpc::AcceptStat> {
                Ok(reply.data(&vec![7u8; arg1 as usize]))
            }
            fn cuda_memcpy_dtod(
                &self,
                arg0: u64,
                arg1: u64,
                arg2: u64,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_memset(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: u64,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_memcpy_htod_sparse(
                &self,
                arg0: u64,
                arg1: &[u8],
            ) -> Result<i32, oncrpc::AcceptStat> {
                let _ = arg0;
                Ok(arg1.len() as i32)
            }
            fn cuda_mem_get_info(&self) -> Result<MemInfoResult, oncrpc::AcceptStat> {
                Ok(MemInfoResult::Info(MemInfo { free: 1, total: 2 }))
            }
            fn cuda_get_last_error(&self) -> Result<IntResult, oncrpc::AcceptStat> {
                Ok(IntResult::Data(0))
            }
            fn cu_module_load_data(&self, arg0: &[u8]) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(arg0.len() as u64))
            }
            fn cu_module_get_function(
                &self,
                arg0: u64,
                arg1: &str,
            ) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(arg0 + arg1.len() as u64))
            }
            fn cu_module_unload(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_launch_kernel(
                &self,
                arg0: u64,
                arg1: RpcDim3,
                arg2: RpcDim3,
                arg3: u32,
                arg4: u64,
                arg5: &[u8],
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok((arg1.count() * arg2.count()) as i32)
            }
            fn cuda_stream_create(&self) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(1))
            }
            fn cuda_stream_destroy(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_stream_synchronize(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_event_create(&self) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(2))
            }
            fn cuda_event_record(&self, arg0: u64, arg1: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_event_synchronize(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cuda_event_elapsed_time(
                &self,
                arg0: u64,
                arg1: u64,
            ) -> Result<FloatResult, oncrpc::AcceptStat> {
                Ok(FloatResult::Data(1.25))
            }
            fn cuda_event_destroy(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cublas_create(&self) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(3))
            }
            fn cublas_destroy(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            #[allow(clippy::too_many_arguments)]
            fn cublas_sgemm(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: i32,
                arg3: i32,
                arg4: i32,
                arg5: i32,
                arg6: f32,
                arg7: u64,
                arg8: i32,
                arg9: u64,
                arg10: i32,
                arg11: f32,
                arg12: u64,
                arg13: i32,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            #[allow(clippy::too_many_arguments)]
            fn cublas_dgemm(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: i32,
                arg3: i32,
                arg4: i32,
                arg5: i32,
                arg6: f64,
                arg7: u64,
                arg8: i32,
                arg9: u64,
                arg10: i32,
                arg11: f64,
                arg12: u64,
                arg13: i32,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cusolver_dn_create(&self) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data(4))
            }
            fn cusolver_dn_destroy(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cusolver_dn_dgetrf_buffer_size(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: i32,
                arg3: u64,
                arg4: i32,
            ) -> Result<IntResult, oncrpc::AcceptStat> {
                Ok(IntResult::Data(arg1 * arg2))
            }
            #[allow(clippy::too_many_arguments)]
            fn cusolver_dn_dgetrf(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: i32,
                arg3: u64,
                arg4: i32,
                arg5: u64,
                arg6: u64,
                arg7: u64,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            #[allow(clippy::too_many_arguments)]
            fn cusolver_dn_dgetrs(
                &self,
                arg0: u64,
                arg1: i32,
                arg2: i32,
                arg3: i32,
                arg4: u64,
                arg5: i32,
                arg6: u64,
                arg7: u64,
                arg8: i32,
                arg9: u64,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cufft_plan_1d(
                &self,
                arg0: i32,
                arg1: i32,
                arg2: i32,
            ) -> Result<U64Result, oncrpc::AcceptStat> {
                Ok(U64Result::Data((arg0 + arg1 + arg2) as u64))
            }
            fn cufft_destroy(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cufft_exec_c2c(
                &self,
                arg0: u64,
                arg1: u64,
                arg2: u64,
                arg3: i32,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cufft_exec_z2z(
                &self,
                arg0: u64,
                arg1: u64,
                arg2: u64,
                arg3: i32,
            ) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn cricket_batch_exec(&self, arg0: &[u8]) -> Result<BatchResult, oncrpc::AcceptStat> {
                // Count the sub-ops without interpreting them.
                let mut dec = xdr::XdrDecoder::new(arg0);
                let count = dec.get_u32().map_err(|_| oncrpc::AcceptStat::GarbageArgs)?;
                Ok(BatchResult::Receipt(BatchReceipt {
                    statuses: vec![0; count as usize].into(),
                    executed: count,
                    queued_ns: 0,
                    last_completes_at_ns: 0,
                }))
            }
            fn ckpt_capture(
                &self,
                reply: DataResultReply<'_>,
            ) -> Result<DataResultReplied, oncrpc::AcceptStat> {
                Ok(reply.default(700))
            }
            fn ckpt_restore(&self, arg0: &[u8]) -> Result<i32, oncrpc::AcceptStat> {
                Ok(arg0.len() as i32)
            }
            fn srv_get_stats(&self) -> Result<ServerStats, oncrpc::AcceptStat> {
                let stats = [("server.calls", 1), ("server.sessions", 5)].map(Stat::from);
                Ok(ServerStats {
                    stats: stats.to_vec().into(),
                })
            }
            fn srv_reset_stats(&self) -> Result<i32, oncrpc::AcceptStat> {
                Ok(0)
            }
            fn srv_set_scheduler(&self, arg0: i32) -> Result<i32, oncrpc::AcceptStat> {
                Ok(arg0)
            }
            fn mig_apply_base(&self, arg0: &[u8]) -> Result<i32, oncrpc::AcceptStat> {
                Ok(arg0.len() as i32)
            }
            fn mig_apply_delta(&self, arg0: &[u8]) -> Result<IntResult, oncrpc::AcceptStat> {
                Ok(IntResult::Data(arg0.len() as i32))
            }
            fn mig_abort(&self, arg0: u64) -> Result<i32, oncrpc::AcceptStat> {
                Ok(arg0 as i32)
            }
            fn cricket_qos_set(&self, arg0: QosParams) -> Result<i32, oncrpc::AcceptStat> {
                Ok(arg0.weight as i32)
            }
        }

        let mut server = RpcServer::new();
        server.register(CRICKET_CUDA, CRICKET_V1, Arc::new(CricketV1Dispatch(Fake)));
        let server = Arc::new(server);
        let (client_end, server_end) = duplex_pair();
        std::thread::spawn(move || {
            let mut conn = server_end;
            let _ = server.serve_connection(&mut conn);
        });
        let mut client = CricketV1Client::new(Box::new(client_end));

        client.rpc_null().unwrap();
        assert_eq!(client.cuda_get_device_count().unwrap(), IntResult::Data(4));
        assert_eq!(
            client.cuda_malloc(&256).unwrap().into_result().unwrap(),
            0x1100
        );
        assert_eq!(client.cuda_memcpy_htod(&0x1000, &[1, 2, 3]).unwrap(), 3);
        let back = client
            .cuda_memcpy_dtoh(&0x1000, &5)
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(back, vec![7u8; 5]);
        assert_eq!(client.ckpt_capture().unwrap(), DataResult::Default(700));
        let launched = client
            .cuda_launch_kernel(&0xf, &(4, 2, 1).into(), &(32, 1, 1).into(), &0, &0, &[])
            .unwrap();
        assert_eq!(launched, 8 * 32);
        let stats = client.srv_get_stats().unwrap();
        assert_eq!(stats.get("server.sessions"), Some(5));
        assert_eq!(stats.get("server.sessions_"), None);
        assert_eq!(
            client.cuda_event_elapsed_time(&1, &2).unwrap(),
            FloatResult::Data(1.25)
        );
        assert_eq!(
            client.cuda_get_device_properties(&0).unwrap(),
            PropResult::Default(101)
        );
    }
}
